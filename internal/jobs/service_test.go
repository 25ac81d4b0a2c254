package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fpgaflow/internal/core"
)

// instantRunner completes immediately with a deterministic fake bitstream.
func instantRunner(ctx context.Context, spec Spec) (*core.Result, error) {
	return &core.Result{Encoded: []byte("bitstream:" + spec.Fingerprint())}, nil
}

// gateRunner blocks each job until released; started receives the job's
// tenant when the runner begins. Cancellation unblocks it.
func gateRunner(started chan string, release chan struct{}) Runner {
	return func(ctx context.Context, spec Spec) (*core.Result, error) {
		if started != nil {
			started <- spec.Tenant
		}
		select {
		case <-release:
			return &core.Result{Encoded: []byte("ok")}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func openService(t *testing.T, mod func(*Config)) *Service {
	t.Helper()
	cfg := Config{Dir: t.TempDir(), Workers: 2, Runner: instantRunner}
	if mod != nil {
		mod(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s
}

func waitTerminal(t *testing.T, s *Service, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return st
}

func TestSubmitRunWaitArtifacts(t *testing.T) {
	s := openService(t, nil)
	st, err := s.Submit(context.Background(), specFixture("alice"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID == "" || st.State != StateQueued || st.Tenant != "alice" {
		t.Fatalf("submit status = %+v", st)
	}

	final := waitTerminal(t, s, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}
	if final.Artifact == "" {
		t.Fatal("succeeded job has no artifact digest")
	}
	if final.Attempt != 1 {
		t.Fatalf("attempt = %d, want 1", final.Attempt)
	}

	names, err := s.ArtifactNames(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"design.bit", "result.json", "trace.json"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("artifacts = %v, want %v", names, want)
	}
	p, err := s.ArtifactPath(st.ID, "design.bit")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "bitstream:") {
		t.Fatalf("artifact content %q", data)
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	s := openService(t, nil)
	for _, spec := range []Spec{
		{},
		{Tenant: "Bad Tenant", Source: "x"},
		{Tenant: "ok", Source: ""},
		{Tenant: "ok", Source: "x", Options: FlowOptions{Retries: 99}},
	} {
		if _, err := s.Submit(context.Background(), spec); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("Submit(%+v) err = %v, want ErrBadSpec", spec, err)
		}
	}
}

// TestSubmitDedupCoalesces: resubmitting an identical (tenant, source,
// options) spec while the original is in flight returns the original job;
// after the original completes, a resubmission is a fresh job.
func TestSubmitDedupCoalesces(t *testing.T) {
	release := make(chan struct{})
	s := openService(t, func(c *Config) {
		c.Workers = 1
		c.Runner = gateRunner(nil, release)
	})
	spec := specFixture("alice")
	first, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != first.ID {
		t.Fatalf("duplicate submit got job %s, want coalesced %s", again.ID, first.ID)
	}
	// A different tenant with the same source is NOT coalesced.
	other := spec
	other.Tenant = "bob"
	st, err := s.Submit(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == first.ID {
		t.Fatal("cross-tenant submit coalesced")
	}

	close(release)
	waitTerminal(t, s, first.ID)
	waitTerminal(t, s, st.ID)

	fresh, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == first.ID {
		t.Fatal("submit after completion reused the finished job")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s := openService(t, func(c *Config) {
		c.Workers = 1
		c.Runner = gateRunner(started, release)
	})
	blocker, err := s.Submit(context.Background(), specFixture("alice"))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is now occupied

	spec := specFixture("bob")
	queued, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("canceled queued job state = %s", st.State)
	}
	// Canceling a terminal job is an idempotent no-op.
	st2, err := s.Cancel(queued.ID)
	if err != nil || st2.State != StateCanceled {
		t.Fatalf("second cancel: %+v, %v", st2, err)
	}

	close(release)
	if got := waitTerminal(t, s, blocker.ID); got.State != StateSucceeded {
		t.Fatalf("blocker finished %s", got.State)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan string, 1)
	s := openService(t, func(c *Config) {
		c.Workers = 1
		c.Runner = gateRunner(started, make(chan struct{})) // never released: only ctx ends it
	})
	st, err := s.Submit(context.Background(), specFixture("alice"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state after cancel-while-running = %s (%s)", final.State, final.Error)
	}
}

func TestCancelUnknownJob(t *testing.T) {
	s := openService(t, nil)
	if _, err := s.Cancel("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := s.Get("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestQuotaRejectionIsolatesTenants: a tenant burning through its bucket is
// rejected with a rate QuotaError while another tenant submits freely.
func TestQuotaRejectionIsolatesTenants(t *testing.T) {
	s := openService(t, func(c *Config) {
		c.TenantRate = 0.001 // effectively no refill within the test
		c.TenantBurst = 2
	})
	mkSpec := func(tenant string, seed int64) Spec {
		sp := specFixture(tenant)
		sp.Options.Seed = seed // distinct fingerprints: dedup must not mask quota
		return sp
	}
	for i := int64(0); i < 2; i++ {
		if _, err := s.Submit(context.Background(), mkSpec("noisy", i)); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	_, err := s.Submit(context.Background(), mkSpec("noisy", 99))
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Reason != "rate" {
		t.Fatalf("over-quota submit err = %v, want rate QuotaError", err)
	}
	if qe.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want positive", qe.RetryAfter)
	}
	if _, err := s.Submit(context.Background(), mkSpec("quiet", 1)); err != nil {
		t.Fatalf("quiet tenant rejected alongside noisy one: %v", err)
	}
}

// TestBacklogBackpressure: with the queue full, any tenant's submission is
// rejected with a backlog QuotaError carrying a Retry-After hint.
func TestBacklogBackpressure(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s := openService(t, func(c *Config) {
		c.Workers = 1
		c.QueueLimit = 1
		c.Runner = gateRunner(started, release)
	})
	mkSpec := func(seed int64) Spec {
		sp := specFixture("alice")
		sp.Options.Seed = seed
		return sp
	}
	if _, err := s.Submit(context.Background(), mkSpec(1)); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; the queue is empty again
	if _, err := s.Submit(context.Background(), mkSpec(2)); err != nil {
		t.Fatal(err) // fills the queue to its limit of 1
	}
	_, err := s.Submit(context.Background(), mkSpec(3))
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Reason != "backlog" {
		t.Fatalf("submit into full queue err = %v, want backlog QuotaError", err)
	}
	if qe.RetryAfter <= 0 {
		t.Fatalf("backlog RetryAfter = %v", qe.RetryAfter)
	}
	close(release)
}

func TestCloseDrainsAndRejectsNewWork(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s := openService(t, func(c *Config) { c.Runner = gateRunner(started, release) })
	st, err := s.Submit(context.Background(), specFixture("alice"))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is running when the drain begins

	closed := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { closed <- s.Close(ctx) }()
	time.Sleep(20 * time.Millisecond) // let the drain settle in
	close(release)                    // the running job now finishes
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The in-flight job completed during the drain.
	final, err := s.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateSucceeded {
		t.Fatalf("job state after drain = %s", final.State)
	}
	if _, err := s.Submit(context.Background(), specFixture("bob")); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after Close err = %v, want ErrDraining", err)
	}
	// Close is idempotent.
	if err := s.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestPanickingRunnerRequeuesThenGivesUp: a runner that panics tears down
// the attempt, the job is re-queued like a crash, and after MaxAttempts the
// job fails terminally instead of looping forever.
func TestPanickingRunnerRequeuesThenGivesUp(t *testing.T) {
	s := openService(t, func(c *Config) {
		c.Workers = 1
		c.MaxAttempts = 2
		c.Runner = func(ctx context.Context, spec Spec) (*core.Result, error) {
			panic("chaos: runner exploded")
		}
	})
	st, err := s.Submit(context.Background(), specFixture("alice"))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "gave up") {
		t.Fatalf("error = %q, want a gave-up message", final.Error)
	}
	if final.Attempt != 2 {
		t.Fatalf("attempt = %d, want MaxAttempts=2", final.Attempt)
	}
}

func TestFailingRunnerFailsJob(t *testing.T) {
	s := openService(t, func(c *Config) {
		c.Runner = func(ctx context.Context, spec Spec) (*core.Result, error) {
			return nil, errors.New("synthesis rejected the design")
		}
	})
	st, err := s.Submit(context.Background(), specFixture("alice"))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "synthesis rejected") {
		t.Fatalf("final = %+v", final)
	}
}

func TestWaitHonorsContext(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := openService(t, func(c *Config) { c.Runner = gateRunner(nil, release) })
	st, err := s.Submit(context.Background(), specFixture("alice"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := s.Wait(ctx, st.ID); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait err = %v, want DeadlineExceeded", err)
	}
}

func TestArtifactPathRefusesEscapes(t *testing.T) {
	s := openService(t, nil)
	st, err := s.Submit(context.Background(), specFixture("alice"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)
	for _, name := range []string{"../wal.jsonl", "..", ".", ".hidden", "a/b", ""} {
		if _, err := s.ArtifactPath(st.ID, name); !errors.Is(err, ErrNotFound) {
			t.Fatalf("ArtifactPath(%q) err = %v, want ErrNotFound", name, err)
		}
	}
}

func TestListFiltersByTenant(t *testing.T) {
	s := openService(t, nil)
	a, _ := s.Submit(context.Background(), specFixture("alice"))
	b, _ := s.Submit(context.Background(), specFixture("bob"))
	waitTerminal(t, s, a.ID)
	waitTerminal(t, s, b.ID)
	if got := s.List(""); len(got) != 2 {
		t.Fatalf("List all = %d jobs", len(got))
	}
	got := s.List("bob")
	if len(got) != 1 || got[0].ID != b.ID {
		t.Fatalf("List(bob) = %+v", got)
	}
}

func TestSnapshotCountsStates(t *testing.T) {
	s := openService(t, nil)
	st, _ := s.Submit(context.Background(), specFixture("alice"))
	waitTerminal(t, s, st.ID)
	snap := s.Snapshot()
	if snap.Succeeded != 1 || snap.Queued != 0 || snap.Running != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestRealFlowEndToEnd drives one job through the actual hardened core
// runner (no injected Runner): the full place/route/bitstream flow on a
// tiny BLIF design.
func TestRealFlowEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real flow in -short mode")
	}
	s := openService(t, func(c *Config) {
		c.Workers = 1
		c.Runner = nil // the production coreRunner
	})
	spec := specFixture("alice")
	spec.Options.SkipVerify = false
	st, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("real flow finished %s: %s", final.State, final.Error)
	}
	if final.Metrics == nil || final.Metrics.BitstreamB == 0 {
		t.Fatalf("metrics = %+v", final.Metrics)
	}
	p, err := s.ArtifactPath(st.ID, "design.bit")
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(p)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("bitstream artifact: %v size=%d", err, fi.Size())
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(p), "result.json")); err != nil {
		t.Fatalf("result.json: %v", err)
	}
}

// TestCommentedBLIFJobSucceeds submits a committed example netlist, which
// opens with '#' comment lines, through the production runner: the source
// must enter the flow at the BLIF stage, not the VHDL parser.
func TestCommentedBLIFJobSucceeds(t *testing.T) {
	if testing.Short() {
		t.Skip("real flow in -short mode")
	}
	src, err := os.ReadFile("../../examples/netlists/count2.blif")
	if err != nil {
		t.Fatal(err)
	}
	s := openService(t, func(c *Config) {
		c.Workers = 1
		c.Runner = nil // the production coreRunner
	})
	st, err := s.Submit(context.Background(), Spec{Tenant: "alice", Name: "count2", Source: string(src)})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, s, st.ID); final.State != StateSucceeded {
		t.Fatalf("count2.blif job finished %s: %s", final.State, final.Error)
	}
}
