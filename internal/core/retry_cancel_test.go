package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRetryBackoffCancelReturnsPromptly pins the RetryPolicy x cancellation
// contract: a caller cancelling while the runner sits in its between-attempt
// backoff must get control back immediately (not after the backoff), the
// error must expose context.Canceled to errors.Is, and no further attempt
// may run.
func TestRetryBackoffCancelReturnsPromptly(t *testing.T) {
	attempts := 0
	fail := &StageError{Stage: "VPR route", Err: errors.New("synthetic retryable failure"), retryable: true}
	attempt := func(context.Context, Options, string) (*Result, error) {
		attempts++
		return &Result{}, fail
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()

	opts := Options{Retry: RetryPolicy{
		MaxAttempts:     5,
		ReseedPlacement: true,
		Backoff:         30 * time.Second, // far beyond the test deadline: a prompt return proves the select
	}}
	start := time.Now()
	_, err := runRetry(ctx, opts, attempt)
	elapsed := time.Since(start)

	if attempts != 1 {
		t.Fatalf("ran %d attempts; cancellation during backoff must not start another", attempts)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("runRetry took %v to notice cancellation during a 30s backoff", elapsed)
	}
	if err == nil {
		t.Fatal("runRetry returned nil error after a failed, cancelled run")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	// The original stage failure stays diagnosable next to the cancellation.
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "VPR route" {
		t.Fatalf("error lost its StageError identity: %v", err)
	}
}

// TestRetryBackoffRunsWhenNotCancelled is the control: with no
// cancellation, backoff delays but does not prevent the retry.
func TestRetryBackoffRunsWhenNotCancelled(t *testing.T) {
	attempts := 0
	attempt := func(context.Context, Options, string) (*Result, error) {
		attempts++
		if attempts == 1 {
			return &Result{}, &StageError{Stage: "VPR route", Err: errors.New("transient"), retryable: true}
		}
		return &Result{}, nil
	}
	opts := Options{Retry: RetryPolicy{MaxAttempts: 3, ReseedPlacement: true, Backoff: time.Millisecond}}
	if _, err := runRetry(context.Background(), opts, attempt); err != nil {
		t.Fatalf("retry after backoff failed: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
}
