package core

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/circuits"
	"fpgaflow/internal/fault"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
)

// The hardened-runner contract under fault injection: the flow either
// recovers (routing around defects, re-seeding, escalating channel width)
// or fails fast with a typed *StageError — it never panics and never
// hangs. Every test runs under a deadline to enforce the last point.

func faultTestCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// TestFlowRoutesAroundDeadSwitches is the headline acceptance: with a
// seeded defect map disabling ~2% of switch points (plus some dead wires),
// a committed example netlist still completes the full flow, and the run
// reports its injection and recovery counters.
func TestFlowRoutesAroundDeadSwitches(t *testing.T) {
	blif, err := os.ReadFile("../../examples/netlists/count2.blif")
	if err != nil {
		t.Fatal(err)
	}
	dm, err := fault.Generate(arch.Paper(), 42, fault.Rates{DeadSwitch: 0.02, DeadWire: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if dm.Count() == 0 {
		t.Fatal("defect map empty; raise the rates")
	}
	tr := obs.New("fault-acceptance")
	// Fixed paper fabric so the whole defect map is in range (an auto-sized
	// grid would shrink under the map's 8x8 extent).
	res, err := RunBLIFContext(faultTestCtx(t), string(blif), Options{
		Seed:    1,
		Arch:    arch.Paper(),
		Defects: dm,
		Retry:   DefaultRetryPolicy(),
		Obs:     tr,
	})
	if err != nil {
		t.Fatalf("flow did not survive %s: %v\n%s", dm.Summary(), err, res.Summary())
	}
	if !res.Verified {
		t.Fatal("defective-fabric run produced an unverified bitstream")
	}
	c := tr.Counters()
	if c["fault.injected"] != int64(dm.Count()) {
		t.Errorf("fault.injected = %d, want %d", c["fault.injected"], dm.Count())
	}
	if c["fault.rr_dead_nodes"] == 0 && c["fault.rr_edges_removed"] == 0 {
		t.Error("defect map applied nothing to the RR graph")
	}
	if c["flow.attempts"] < 1 {
		t.Errorf("flow.attempts = %d", c["flow.attempts"])
	}
	// The recovery counters must exist even when the first attempt wins.
	for _, name := range []string{"flow.retries", "flow.degraded"} {
		if _, ok := c[name]; !ok {
			t.Errorf("counter %s not materialized", name)
		}
	}
	// Defects live in the routing's overlay: the run's shared graph, which
	// DAGGER and Verify also read, stays edge-for-edge a fresh Build.
	if ov := res.Routed.Defects; ov == nil || ov.EdgesRemoved == 0 {
		t.Fatal("routing carries no defect overlay")
	}
	fresh, err := rrgraph.Build(res.Routed.Graph.Arch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Routed.Graph, fresh) {
		t.Error("defect-aware flow modified the shared RR graph")
	}
}

// TestFlowAvoidsDefectiveSites checks every defect class end to end on a
// generated design: bad sites never receive blocks, dead resources never
// appear in route trees (the stage-boundary rules fail the run otherwise),
// and stuck bits either match the configuration or fail typed.
func TestFlowAvoidsDefectiveSites(t *testing.T) {
	cases := []struct {
		name  string
		rates fault.Rates
	}{
		{"bad-sites", fault.Rates{BadCLB: 0.15, BadIO: 0.15}},
		{"dead-wires", fault.Rates{DeadWire: 0.03}},
		{"dead-switches", fault.Rates{DeadSwitch: 0.03}},
		{"mixed", fault.Rates{DeadWire: 0.01, DeadSwitch: 0.01, BadCLB: 0.1, BadIO: 0.1}},
	}
	src := circuits.RippleAdder(4).VHDL
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dm, err := fault.Generate(arch.Paper(), 7, tc.rates)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunVHDLContext(faultTestCtx(t), src, Options{
				Seed:    2,
				Arch:    arch.Paper(),
				Defects: dm,
				Retry:   DefaultRetryPolicy(),
			})
			if err != nil {
				var se *StageError
				if !errors.As(err, &se) {
					t.Fatalf("untyped flow error: %v", err)
				}
				t.Fatalf("flow failed under %s: %v", dm.Summary(), err)
			}
			bad := dm.BadSiteSet()
			for _, b := range res.Problem.Blocks {
				l := res.Placed.Loc[b.ID]
				if bad[[2]int{l.X, l.Y}] {
					t.Errorf("block %q placed on defective site (%d,%d)", b.Name, l.X, l.Y)
				}
			}
			for _, nr := range res.Routed.Routes {
				if nr == nil {
					continue
				}
				for _, id := range nr.NodeList() {
					if res.Routed.Defects.Dead(id) {
						t.Errorf("route uses dead RR node %d", id)
					}
				}
			}
		})
	}
}

// TestFlowStuckBitsRecoverOrFailTyped: stuck LUT bits conflict with the
// configuration only for particular placements, so the hardened runner
// either lands a clean placement (possibly after re-seeding) or reports a
// typed stage failure. Either way: no panic, no hang, no silent success
// with a violated fabric.
func TestFlowStuckBitsRecoverOrFailTyped(t *testing.T) {
	dm, err := fault.Generate(arch.Paper(), 5, fault.Rates{StuckBit: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(dm.StuckBits) == 0 {
		t.Fatal("no stuck bits generated")
	}
	res, err := RunVHDLContext(faultTestCtx(t), circuits.Counter(4).VHDL, Options{
		Seed:    3,
		Arch:    arch.Paper(),
		Defects: dm,
		Retry:   DefaultRetryPolicy(),
	})
	if err != nil {
		var se *StageError
		if !errors.As(err, &se) {
			t.Fatalf("untyped flow error: %v", err)
		}
		if se.Stage != "DAGGER" {
			t.Errorf("stuck-bit conflict surfaced at stage %q, want DAGGER", se.Stage)
		}
		return
	}
	// Success must mean the configuration actually agrees with the fabric.
	for _, b := range res.Problem.Blocks {
		if b.Kind != place.BlockCLB || b.Cluster == nil {
			continue
		}
		l := res.Placed.Loc[b.ID]
		cfg, cerr := res.Bits.CLBAt(l.X, l.Y)
		if cerr != nil {
			t.Fatal(cerr)
		}
		for _, sb := range dm.StuckBitsAt(l.X, l.Y) {
			if sb.BLE < len(b.Cluster.BLEs) && sb.Bit < len(cfg.BLEs[sb.BLE].LUT) &&
				cfg.BLEs[sb.BLE].LUT[sb.Bit] != sb.Value {
				t.Errorf("accepted configuration fights stuck bit %+v", sb)
			}
		}
	}
}

// TestFlowEscalatesChannelWidth: at a hopeless fixed channel width the
// first attempt fails with route.ErrUnroutable and the retry degrades to
// the min-channel-width search, which widens until the design routes.
func TestFlowEscalatesChannelWidth(t *testing.T) {
	a := arch.Paper()
	a.Routing.ChannelWidth = 1
	tr := obs.New("escalation")
	res, err := RunVHDLContext(faultTestCtx(t), circuits.ParityTree(8).VHDL, Options{
		Seed:  4,
		Arch:  a,
		Retry: DefaultRetryPolicy(),
		Obs:   tr,
	})
	if err != nil {
		t.Fatalf("escalation did not rescue W=1: %v\n%s", err, res.Summary())
	}
	c := tr.Counters()
	if c["flow.degraded"] != 1 {
		t.Errorf("flow.degraded = %d, want 1 (unroutable -> min-W escalation)", c["flow.degraded"])
	}
	if c["flow.retries"] < 1 {
		t.Errorf("flow.retries = %d, want >= 1", c["flow.retries"])
	}
	if res.Metrics.ChannelWidth <= 1 {
		t.Errorf("escalated run reports W=%d", res.Metrics.ChannelWidth)
	}
}

// TestFlowCorruptedInputsFailTyped feeds the flow artifacts mangled by the
// fault package's corruption injectors. Every outcome must be a typed
// *StageError (or, rarely, a clean run if the corruption hit whitespace) —
// delivered promptly, with no panic escaping the runner.
func TestFlowCorruptedInputsFailTyped(t *testing.T) {
	blif, err := os.ReadFile("../../examples/netlists/count2.blif")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		text string
	}{
		{"garbled", fault.GarbleText(string(blif), 40, 99)},
		{"truncated", string(fault.Truncate(blif, 0.4))},
		{"binary-as-text", string(fault.FlipBits(blif, 200, 3))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunBLIFContext(faultTestCtx(t), tc.text, Options{
				Seed:  1,
				Retry: DefaultRetryPolicy(),
			})
			if err == nil {
				if !res.Verified {
					t.Error("corrupted input ran to completion unverified")
				}
				return
			}
			var se *StageError
			if !errors.As(err, &se) {
				t.Fatalf("corruption produced an untyped error: %v", err)
			}
			if se.Stage == "" {
				t.Error("StageError with empty stage")
			}
			if se.Attempt < 1 {
				t.Errorf("StageError.Attempt = %d", se.Attempt)
			}
			if se.Partial == nil {
				t.Error("StageError.Partial not stamped")
			}
		})
	}
}

// TestFlowCancelledContextFailsFast: a pre-cancelled context aborts before
// any stage work and surfaces as a typed error wrapping context.Canceled.
func TestFlowCancelledContextFailsFast(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunVHDLContext(ctx, circuits.RippleAdder(4).VHDL, Options{Seed: 1})
	if err == nil {
		t.Fatal("cancelled context ran the flow")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("untyped cancellation error: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause is %v, want context.Canceled", se.Err)
	}
}

// TestStageTimeoutCooperative: a stage that honors its context is cut off
// at the configured deadline and reports context.DeadlineExceeded.
func TestStageTimeoutCooperative(t *testing.T) {
	f := &flow{Result: &Result{tr: obs.New("timeout")}, opts: Options{StageTimeout: 20 * time.Millisecond}}
	start := time.Now()
	err := f.stage(context.Background(), step{name: "VPR place", seeded: true,
		run: func(_ *flow, sctx context.Context) (string, error) {
			<-sctx.Done()
			return "", sctx.Err()
		}})
	if time.Since(start) > 5*time.Second {
		t.Fatal("stage timeout did not bound the stage")
	}
	var se *StageError
	if !errors.As(err, &se) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want StageError wrapping DeadlineExceeded", err)
	}
	if se.Retryable() {
		t.Error("a deadline failure must not be retryable")
	}
}

// TestStageTimeoutAbandonsStuckStage: a stage that ignores cancellation
// entirely is abandoned after the grace period — the flow still returns.
func TestStageTimeoutAbandonsStuckStage(t *testing.T) {
	tr := obs.New("stuck")
	f := &flow{Result: &Result{tr: tr}, opts: Options{StageTimeout: 10 * time.Millisecond}}
	release := make(chan struct{})
	defer close(release)
	err := f.stage(context.Background(), step{name: "SIS", run: func(*flow, context.Context) (string, error) {
		<-release // simulates a wedged, non-cooperative stage
		return "", nil
	}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck stage returned %v, want DeadlineExceeded", err)
	}
	if tr.Counters()["flow.stage_abandoned"] != 1 {
		t.Error("abandonment not counted")
	}
}

// TestStagePanicBecomesStructuredError: a panicking stage neither crashes
// the process nor loses the panic — it comes back as a *PanicError with a
// stack, wrapped in the stage's *StageError, and is never retried.
func TestStagePanicBecomesStructuredError(t *testing.T) {
	f := &flow{Result: &Result{tr: obs.New("panic")}}
	err := f.stage(context.Background(), step{name: "DAGGER", seeded: true,
		run: func(*flow, context.Context) (string, error) {
			panic("bitstream generator bug")
		}})
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("panic produced untyped error: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("cause is %T, want *PanicError", se.Err)
	}
	if pe.Value != "bitstream generator bug" || len(pe.Stack) == 0 {
		t.Errorf("panic details lost: %+v", pe)
	}
	if se.Retryable() {
		t.Error("a panic must not be retryable")
	}
}

// TestRunRetryReseedsAndStops exercises the retry loop in isolation:
// retryable failures are re-attempted with a shifted seed, resuming at the
// first seeded stage, up to the bound, then the last typed error is
// returned.
func TestRunRetryReseedsAndStops(t *testing.T) {
	tr := obs.New("retry")
	var seeds []int64
	var froms []string
	_, err := runRetry(context.Background(), Options{
		Seed: 100,
		Obs:  tr,
		Retry: RetryPolicy{
			MaxAttempts:     3,
			ReseedPlacement: true,
			Backoff:         time.Microsecond,
		},
	}, func(_ context.Context, o Options, from string) (*Result, error) {
		seeds = append(seeds, o.Seed)
		froms = append(froms, from)
		return &Result{}, &StageError{Stage: "VPR route", Err: errors.New("transient"), retryable: true}
	})
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("untyped error after retries: %v", err)
	}
	if se.Attempt != 3 {
		t.Errorf("final attempt %d, want 3", se.Attempt)
	}
	want := []int64{100, 100 + reseedStep, 100 + 2*reseedStep}
	if len(seeds) != len(want) {
		t.Fatalf("attempted seeds %v, want %v", seeds, want)
	}
	for i := range want {
		if seeds[i] != want[i] {
			t.Fatalf("attempted seeds %v, want %v", seeds, want)
		}
	}
	if c := tr.Counters(); c["flow.attempts"] != 3 || c["flow.retries"] != 2 {
		t.Errorf("attempts=%d retries=%d, want 3/2", c["flow.attempts"], c["flow.retries"])
	}
	// Re-seeding resumes at the first seeded stage of the table.
	first := 0
	for !stages[first].seeded {
		first++
	}
	if wantFrom := []string{"", stages[first].name, stages[first].name}; strings.Join(froms, ",") != strings.Join(wantFrom, ",") {
		t.Errorf("resume points %q, want %q", froms, wantFrom)
	}
}

// TestRunRetryDoesNotRetryDeterministicFailures: capacity errors and
// upstream (seed-independent) stages fail on the first attempt.
func TestRunRetryDoesNotRetryDeterministicFailures(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  *StageError
	}{
		{"no-space", &StageError{Stage: "VPR place", Err: place.ErrNoSpace}},
		{"upstream", &StageError{Stage: "SIS", Err: errors.New("bad netlist")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			_, err := runRetry(context.Background(), Options{Retry: DefaultRetryPolicy()},
				func(context.Context, Options, string) (*Result, error) {
					calls++
					tc.err.retryable = retryableCause(stages[stageIndex(tc.err.Stage)].seeded, tc.err.Err)
					return nil, tc.err
				})
			if err == nil || calls != 1 {
				t.Errorf("deterministic failure attempted %d times (err=%v)", calls, err)
			}
		})
	}
}

// TestRunRetryEscalatesOnce: an unroutable failure flips the options to
// the min-channel-width search exactly once, resuming at VPR route; a
// second unroutable result (now inherent to the design) ends the run.
func TestRunRetryEscalatesOnce(t *testing.T) {
	tr := obs.New("escalate")
	var minW []bool
	var froms []string
	_, err := runRetry(context.Background(), Options{
		Obs:   tr,
		Retry: RetryPolicy{MaxAttempts: 5, EscalateChannelWidth: true},
	}, func(_ context.Context, o Options, from string) (*Result, error) {
		minW = append(minW, o.MinChannelWidth)
		froms = append(froms, from)
		return nil, &StageError{Stage: "VPR route",
			Err: route.ErrUnroutable, retryable: retryableCause(true, route.ErrUnroutable)}
	})
	if err == nil {
		t.Fatal("still-unroutable run reported success")
	}
	if len(minW) != 2 || minW[0] || !minW[1] {
		t.Errorf("attempt MinChannelWidth sequence %v, want [false true]", minW)
	}
	if len(froms) != 2 || froms[0] != "" || froms[1] != "VPR route" {
		t.Errorf("resume points %q, want [\"\" \"VPR route\"]", froms)
	}
	if c := tr.Counters(); c["flow.degraded"] != 1 {
		t.Errorf("flow.degraded = %d, want 1", c["flow.degraded"])
	}
}
