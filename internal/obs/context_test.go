package obs

import (
	"context"
	"testing"
)

// TestTraceContextRoundTrip checks the context plumbing the job workers use
// to hand a per-job trace down to the flow runner.
func TestTraceContextRoundTrip(t *testing.T) {
	if got := TraceFromContext(context.Background()); got != nil {
		t.Errorf("empty context yielded trace %v", got)
	}
	tr := New("job")
	ctx := ContextWithTrace(context.Background(), tr)
	if got := TraceFromContext(ctx); got != tr {
		t.Error("trace did not round-trip through the context")
	}
	// A nil trace must not shadow an inherited one.
	if got := TraceFromContext(ContextWithTrace(ctx, nil)); got != tr {
		t.Error("ContextWithTrace(nil) clobbered the inherited trace")
	}
}

// TestDeriveTraceID pins the ID contract: deterministic, 16 lowercase hex
// chars, sensitive to every part and to part boundaries.
func TestDeriveTraceID(t *testing.T) {
	id := DeriveTraceID("job-1", "fp")
	if id != DeriveTraceID("job-1", "fp") {
		t.Error("DeriveTraceID not deterministic")
	}
	if len(id) != 16 {
		t.Errorf("trace ID %q has length %d, want 16", id, len(id))
	}
	for _, r := range id {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
			t.Errorf("trace ID %q is not lowercase hex", id)
			break
		}
	}
	if DeriveTraceID("job-1", "fp") == DeriveTraceID("job-1", "fq") {
		t.Error("trace ID ignores later parts")
	}
	if DeriveTraceID("ab", "c") == DeriveTraceID("a", "bc") {
		t.Error("trace ID must separate parts (\"ab\",\"c\" vs \"a\",\"bc\")")
	}

	// SetTraceID surfaces on the trace's summary.
	tr := New("t")
	tr.SetTraceID(id)
	if tr.Summary().TraceID != id {
		t.Error("trace ID not carried into the summary")
	}
}
