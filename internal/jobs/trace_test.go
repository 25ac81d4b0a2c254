package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fpgaflow/internal/core"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/obs/events"
)

// TestJobTraceArtifact checks the per-job tracing contract end to end at
// the service layer: every finished job exposes a deterministic trace ID
// in its status and a trace.json artifact whose span tree covers the
// queue wait under that one ID.
func TestJobTraceArtifact(t *testing.T) {
	svcTr := obs.New("svc")
	s := openService(t, func(c *Config) { c.Obs = svcTr })
	st, err := s.Submit(context.Background(), specFixture("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID == "" {
		t.Fatal("submit status has no trace ID")
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}
	if final.TraceID != st.TraceID {
		t.Fatalf("trace ID changed across the job's life: %s -> %s", st.TraceID, final.TraceID)
	}

	p, err := s.ArtifactPath(st.ID, "trace.json")
	if err != nil {
		t.Fatalf("trace.json artifact: %v", err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ParseSummary(data)
	if err != nil {
		t.Fatalf("trace.json does not parse as a summary: %v", err)
	}
	if sum.TraceID != st.TraceID {
		t.Fatalf("trace.json carries ID %q, status says %q", sum.TraceID, st.TraceID)
	}
	var sawQueueWait bool
	for _, sp := range sum.Spans {
		if sp.Name == "queue wait" && sp.Depth == 0 {
			sawQueueWait = true
		}
	}
	if !sawQueueWait {
		t.Errorf("trace has no top-level queue-wait span; spans: %+v", sum.Spans)
	}
	if n := svcTr.Histograms()["jobs.queue_wait_seconds"].Count; n == 0 {
		t.Error("queue wait not observed into the service histogram")
	}
	if got := svcTr.CounterVecs()["jobs.finished_by_tenant"].Values["alice"]; got != 1 {
		t.Errorf("jobs.finished_by_tenant[alice] = %d, want 1", got)
	}
}

// TestJobTraceCoversRetries crashes a job's first execution and checks the
// persisted trace shows both executions — spans recorded into the
// per-job trace from the runner's context — with stages nested under their
// attempt and a queue-wait span per enqueue.
func TestJobTraceCoversRetries(t *testing.T) {
	fails := make(chan struct{}, 1)
	fails <- struct{}{}
	s := openService(t, func(c *Config) {
		c.Runner = func(ctx context.Context, spec Spec) (*core.Result, error) {
			tr := obs.TraceFromContext(ctx)
			if tr == nil {
				return nil, errors.New("runner got no trace in its context")
			}
			sp := tr.Start("attempt span")
			tr.Start("fake stage").End()
			sp.End()
			select {
			case <-fails:
				panic("transient worker crash") // requeue path, not terminal failure
			default:
				return &core.Result{Encoded: []byte("ok")}, nil
			}
		}
		c.MaxAttempts = 2
	})
	st, err := s.Submit(context.Background(), specFixture("bob"))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}
	p, err := s.ArtifactPath(st.ID, "trace.json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var sum obs.Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	var attempts, nested int
	for _, sp := range sum.Spans {
		switch sp.Name {
		case "attempt span":
			attempts++
		case "fake stage":
			nested++
			if sp.Depth != 1 {
				t.Errorf("stage span depth = %d, want 1 (nested under its attempt)", sp.Depth)
			}
		}
	}
	if attempts != 2 || nested != 2 {
		t.Errorf("trace shows %d attempts / %d stages, want 2 / 2; spans: %+v",
			attempts, nested, sum.Spans)
	}
	var queueWaits int
	for _, sp := range sum.Spans {
		if sp.Name == "queue wait" {
			queueWaits++
		}
	}
	if queueWaits != 2 {
		t.Errorf("trace shows %d queue-wait spans, want 2 (initial + requeue)", queueWaits)
	}
}

// TestTraceWriteFailureDoesNotFailJob makes the trace unwritable and
// checks the job still succeeds, with the error counted.
func TestTraceWriteFailureDoesNotFailJob(t *testing.T) {
	svcTr := obs.New("svc")
	started := make(chan string, 1)
	release := make(chan struct{})
	s := openService(t, func(c *Config) {
		c.Obs = svcTr
		c.Runner = gateRunner(started, release)
	})
	st, err := s.Submit(context.Background(), specFixture("alice"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// With the job gated mid-run, occupy the trace.json path with a
	// directory so the finish-time atomic write's rename must fail (works
	// regardless of test-runner privileges, unlike chmod).
	dir := s.jobDir(st.ID)
	if err := os.MkdirAll(filepath.Join(dir, "trace.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	close(release)
	final := waitTerminal(t, s, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("job failed because its trace could not be written: %s (%s)", final.State, final.Error)
	}
	if svcTr.Counters()["jobs.trace_write_errors"] == 0 {
		t.Error("trace write failure not counted")
	}
}

// TestJobFlowEventsCarryTraceID runs a real count2 BLIF job through the
// production coreRunner on a service whose trace carries an event bus: the
// flow's convergence telemetry must stream on that bus next to the job
// lifecycle events, each flow event stamped with the job's trace ID.
func TestJobFlowEventsCarryTraceID(t *testing.T) {
	if testing.Short() {
		t.Skip("real flow in -short mode")
	}
	src, err := os.ReadFile("../../examples/netlists/count2.blif")
	if err != nil {
		t.Fatal(err)
	}
	bus := events.NewBus(0)
	svcTr := obs.New("svc")
	svcTr.SetEvents(bus)
	s := openService(t, func(c *Config) {
		c.Workers = 1
		c.Runner = nil // the production coreRunner
		c.Obs = svcTr
	})
	st, err := s.Submit(context.Background(), Spec{Tenant: "alice", Name: "count2", Source: string(src)})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateSucceeded || final.TraceID == "" {
		t.Fatalf("count2.blif job finished %s (trace %q): %s", final.State, final.TraceID, final.Error)
	}
	// The "done" lifecycle event lands just after Wait wakes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		flow := map[events.Kind]int{}
		actions := map[string]bool{}
		for _, ev := range bus.Snapshot() {
			switch ev.Kind {
			case events.KindJob:
				if ev.Job.ID == st.ID {
					actions[ev.Job.Action] = true
				}
			case events.KindPlaceStep, events.KindRouteIter, events.KindStage, events.KindQoR:
				if ev.TraceID != final.TraceID {
					t.Fatalf("%s event carries trace ID %q, want the job's %q", ev.Kind, ev.TraceID, final.TraceID)
				}
				flow[ev.Kind]++
			}
		}
		for _, k := range []events.Kind{events.KindPlaceStep, events.KindRouteIter, events.KindStage, events.KindQoR} {
			if flow[k] == 0 {
				t.Fatalf("no %s events from the job's flow on the service bus (saw %v)", k, flow)
			}
		}
		if actions["submitted"] && actions["start"] && actions["done"] {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job lifecycle events %v, want submitted, start and done", actions)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
