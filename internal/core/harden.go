package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fpgaflow/internal/obs/events"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
)

// StageError is the structured failure of one flow stage: which tool
// failed, on which attempt, why, and what partial artifacts the run had
// produced by then. Every error out of RunVHDLContext/RunBLIFContext is a
// *StageError (errors.As) wrapping the stage's cause (errors.Is), so
// callers can classify failures — route.ErrUnroutable, place.ErrNoSpace,
// context.DeadlineExceeded, a *PanicError — without string matching.
type StageError struct {
	// Stage is the flow tool that failed ("VPR route", "DAGGER", ...).
	Stage string
	// Attempt is the 1-based flow attempt that produced the error (0 when
	// the error escaped the retry wrapper, e.g. from a direct stage call).
	Attempt int
	// Err is the cause.
	Err error
	// Partial holds the artifacts built before the failure (never nil from
	// the public Run entry points; its later fields are simply unset).
	Partial *Result

	retryable bool
}

// Error keeps the historical "<stage>: <cause>" rendering.
func (e *StageError) Error() string { return fmt.Sprintf("%s: %v", e.Stage, e.Err) }

// Unwrap exposes the cause to errors.Is/errors.As.
func (e *StageError) Unwrap() error { return e.Err }

// Retryable reports whether re-running the flow with a different placement
// seed could plausibly change the outcome: the failing stage is downstream
// of placement and the cause is not deterministic (capacity, cancellation,
// a panic).
func (e *StageError) Retryable() bool { return e.retryable }

// PanicError wraps a panic recovered inside a flow stage, preserving the
// panic value and the goroutine stack at the point of the panic.
type PanicError struct {
	Value interface{}
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// retryableCause classifies a stage failure for the retry policy: only a
// seeded stage can fail retryably.
func retryableCause(seeded bool, err error) bool {
	if !seeded {
		return false
	}
	var pe *PanicError
	switch {
	case errors.Is(err, place.ErrNoSpace): // deterministic capacity failure
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.As(err, &pe): // a bug, not bad luck: surface it
		return false
	}
	return true
}

// RetryPolicy configures the hardened runner's recovery behavior. The zero
// value runs the flow exactly once with no degradation.
type RetryPolicy struct {
	// MaxAttempts bounds total flow attempts (values below 1 mean 1).
	MaxAttempts int
	// ReseedPlacement retries seed-dependent stage failures (unroutable
	// placements, stuck-bit conflicts, equivalence misses) with a new
	// placement seed.
	ReseedPlacement bool
	// EscalateChannelWidth degrades gracefully after an unroutable failure
	// at the architecture's fixed channel width: the retry switches to the
	// MinChannelWidth search, which widens the channel until the design
	// routes. The escalation is counted on the flow.degraded counter.
	EscalateChannelWidth bool
	// Backoff is the wait before the first retry, doubling on every
	// further retry up to MaxBackoff; zero retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the exponential backoff (0 = uncapped).
	MaxBackoff time.Duration
}

// DefaultRetryPolicy is a sensible hardened configuration: up to three
// attempts, re-seeding and channel-width escalation on, no backoff (the
// flow is CPU-bound, not contended).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, ReseedPlacement: true, EscalateChannelWidth: true}
}

// reseedStep offsets the placement seed between retry attempts. It is a
// prime distinct from the 7919 stride PlaceBest uses for its parallel
// seeds, so retried runs never replay a seed the multi-start placer
// already tried.
const reseedStep = 104729

// runRetry is the hardened runner: it executes attempt under the options'
// retry policy, mutating the options between attempts (new seed, escalated
// channel width) per the classification of the previous failure. The first
// attempt gets from == ""; a retry names the first stage the option change
// affects, where the run resumes: VPR route after an escalation (the
// placement is unchanged), the first seeded stage (VPR place) after a
// re-seed. Every attempt, retry and degradation is counted on the run's
// trace; the counters exist (at zero) even for clean first-attempt runs so
// metrics consumers can rely on them.
func runRetry(ctx context.Context, opts Options, attempt func(ctx context.Context, o Options, from string) (*Result, error)) (*Result, error) {
	opts.fill()
	tr := opts.Obs
	tr.Counter("flow.attempts")
	tr.Counter("flow.retries")
	tr.Counter("flow.degraded")
	pol := opts.Retry
	backoff, from := pol.Backoff, ""
	for try := 1; ; try++ {
		if tr.Events().Enabled() {
			tr.Publish(events.Event{Kind: events.KindFlow,
				Flow: &events.FlowEvent{Action: "attempt", Attempt: try, Seed: opts.Seed}})
		}
		// Each attempt is a span of its own, so a retried job's trace shows
		// every attempt (with the stages it ran nested under it) on one
		// timeline instead of a flat stage list that silently restarts.
		asp := tr.Start(fmt.Sprintf("attempt %d", try))
		asp.SetDetail("seed=%d", opts.Seed)
		res, err := attempt(ctx, opts, from)
		tr.Add("flow.attempts", 1)
		if err == nil {
			asp.End()
			return res, nil
		}
		se := asStageError(err, try, res)
		action := ""
		switch {
		case try >= pol.MaxAttempts || ctx.Err() != nil: // out of attempts or cancelled
		case pol.EscalateChannelWidth && !opts.MinChannelWidth && errors.Is(se, route.ErrUnroutable):
			opts.MinChannelWidth = true
			tr.Add("flow.degraded", 1)
			action, from = "escalate", "VPR route"
		case pol.ReseedPlacement && se.Retryable():
			opts.Seed += reseedStep
			action, from = "retry", "VPR place"
		}
		if action == "" {
			asp.SetDetail("seed=%d err=%v", opts.Seed, se)
			asp.End()
			return res, se
		}
		asp.SetDetail("seed=%d %s: %v", opts.Seed, action, se)
		asp.End()
		tr.Add("flow.retries", 1)
		if tr.Events().Enabled() {
			tr.Publish(events.Event{Kind: events.KindFlow, Flow: &events.FlowEvent{
				Action: action, Attempt: try + 1, Seed: opts.Seed, Reason: se.Error()}})
		}
		if backoff > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				// A caller cancelling during backoff must get back promptly
				// and see the cancellation (errors.Is(err, context.Canceled))
				// alongside the stage failure that triggered the retry — and
				// no further attempt may run.
				t.Stop()
				return res, &StageError{Stage: se.Stage, Attempt: se.Attempt,
					Partial: se.Partial, Err: errors.Join(se.Err, context.Cause(ctx))}
			case <-t.C:
			}
			backoff *= 2
			if pol.MaxBackoff > 0 && backoff > pol.MaxBackoff {
				backoff = pol.MaxBackoff
			}
		}
	}
}

// asStageError guarantees the flow's error contract: every failure leaving
// the retry wrapper is a *StageError stamped with its attempt and partial
// result.
func asStageError(err error, attempt int, res *Result) *StageError {
	var se *StageError
	if !errors.As(err, &se) {
		se = &StageError{Stage: "flow", Err: err}
	}
	se.Attempt = attempt
	se.Partial = res
	return se
}
