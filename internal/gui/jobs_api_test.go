package gui

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fpgaflow/internal/core"
	"fpgaflow/internal/jobs"
	"fpgaflow/internal/obs"
)

// newJobsServer boots a GUI server with an embedded job service whose
// runner completes instantly.
func newJobsServer(t *testing.T, mod func(*jobs.Config)) (*httptest.Server, *Server) {
	t.Helper()
	s := NewServer()
	tr := obs.New("jobs")
	tr.SetEvents(s.Obs.Events())
	cfg := jobs.Config{
		Dir: t.TempDir(), Workers: 2, Obs: tr,
		Runner: func(ctx context.Context, spec jobs.Spec) (*core.Result, error) {
			return &core.Result{Encoded: []byte("bits:" + spec.Fingerprint())}, nil
		},
	}
	if mod != nil {
		mod(&cfg)
	}
	svc, err := jobs.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Jobs, s.JobsTrace = svc, tr
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	return srv, s
}

func submitJob(t *testing.T, url string, spec jobs.Spec) (*http.Response, jobs.Status) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return resp, st
}

func blifSpec(tenant string, seed int64) jobs.Spec {
	return jobs.Spec{Tenant: tenant, Name: "adder",
		Source:  ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n",
		Options: jobs.FlowOptions{Seed: seed}}
}

// TestJobsAPILifecycle drives one job over HTTP end to end: submit, poll to
// terminal, list artifacts, download one, and observe it in the job list.
func TestJobsAPILifecycle(t *testing.T) {
	srv, _ := newJobsServer(t, nil)
	resp, st := submitJob(t, srv.URL, blifSpec("alice", 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}

	// Poll the status endpoint to a terminal state.
	deadline := time.Now().Add(15 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
		r, err := http.Get(srv.URL + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		st = jobs.Status{}
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.State != jobs.StateSucceeded {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}

	var arts struct {
		Artifacts []string `json:"artifacts"`
	}
	r, err := http.Get(srv.URL + "/jobs/" + st.ID + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(r.Body).Decode(&arts)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(arts.Artifacts) == 0 || arts.Artifacts[0] != "design.bit" {
		t.Fatalf("artifacts = %v", arts.Artifacts)
	}
	bits := getBody(t, http.DefaultClient, srv.URL+"/jobs/"+st.ID+"/artifacts/design.bit")
	if !strings.HasPrefix(bits, "bits:") {
		t.Fatalf("artifact bytes = %q", bits)
	}

	list := getBody(t, http.DefaultClient, srv.URL+"/jobs?tenant=alice")
	if !strings.Contains(list, st.ID) {
		t.Fatalf("tenant list missing job:\n%s", list)
	}
}

// TestJobsAPICancel cancels a running job with DELETE.
func TestJobsAPICancel(t *testing.T) {
	started := make(chan struct{}, 1)
	srv, s := newJobsServer(t, func(c *jobs.Config) {
		c.Workers = 1
		c.Runner = func(ctx context.Context, spec jobs.Spec) (*core.Result, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
	})
	_, st := submitJob(t, srv.URL, blifSpec("alice", 1))
	<-started
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := s.Jobs.Wait(ctx, st.ID)
	if err != nil || final.State != jobs.StateCanceled {
		t.Fatalf("after DELETE: %+v, %v", final, err)
	}
}

func TestJobsAPIErrors(t *testing.T) {
	srv, _ := newJobsServer(t, nil)
	// Malformed spec -> 400.
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"tenant":"UP"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d, want 400", resp.StatusCode)
	}
	// Unknown job -> 404.
	resp, err = http.Get(srv.URL + "/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
	// Oversized body -> 413.
	huge := bytes.Repeat([]byte("x"), maxJobBodyBytes+1)
	resp, err = http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// Without a job service the whole API is a clean 404.
	plain := httptest.NewServer(NewServer().Handler())
	defer plain.Close()
	resp, err = http.Post(plain.URL+"/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled jobs API: status %d, want 404", resp.StatusCode)
	}
}

// TestJobsAPIQuota429 is the backpressure acceptance check: a tenant
// exceeding its quota gets 429 with a Retry-After header while another
// tenant's submissions still go through, and the rejection shows up on the
// jobs.* counters served by /metrics.
func TestJobsAPIQuota429(t *testing.T) {
	srv, _ := newJobsServer(t, func(c *jobs.Config) {
		c.TenantRate = 0.001
		c.TenantBurst = 1
	})
	if resp, _ := submitJob(t, srv.URL, blifSpec("noisy", 1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	resp, _ := submitJob(t, srv.URL, blifSpec("noisy", 2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	// The other tenant is unaffected.
	if resp, _ := submitJob(t, srv.URL, blifSpec("quiet", 1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant: status %d, want 202", resp.StatusCode)
	}

	// /metrics exposes the jobs namespace: counters and the queue gauge.
	var doc struct {
		Jobs struct {
			Counters map[string]int64   `json:"counters"`
			Gauges   map[string]float64 `json:"gauges"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(getBody(t, http.DefaultClient, srv.URL+"/metrics")), &doc); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if doc.Jobs.Counters["jobs.submitted"] < 2 {
		t.Fatalf("jobs.submitted = %d", doc.Jobs.Counters["jobs.submitted"])
	}
	if doc.Jobs.Counters["jobs.rejected_quota"] < 1 {
		t.Fatalf("jobs.rejected_quota = %d", doc.Jobs.Counters["jobs.rejected_quota"])
	}
	if _, ok := doc.Jobs.Gauges["jobs.queue_depth"]; !ok {
		t.Fatal("jobs.queue_depth gauge missing from /metrics")
	}
}

// TestUploadBodyBounded: the upload form rejects oversized posts instead of
// buffering them.
func TestUploadBodyBounded(t *testing.T) {
	srv, c := newClient(t)
	huge := strings.NewReader("source=" + strings.Repeat("x", maxUploadBytes+1))
	resp, err := c.Post(srv.URL+"/upload", "application/x-www-form-urlencoded", huge)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", resp.StatusCode)
	}
	// A normal upload still works.
	resp, err = c.PostForm(srv.URL+"/upload", map[string][]string{"source": {".model m\n.end\n"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("normal upload: status %d", resp.StatusCode)
	}
}

// TestSSESubscriberLeak: every departed /events client must unsubscribe
// from the bus — N connects and disconnects leave zero live subscribers.
func TestSSESubscriberLeak(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const n = 5
	cancels := make([]context.CancelFunc, 0, n)
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
	}
	// All streams are live: the bus sees the subscribers.
	deadline := time.Now().Add(5 * time.Second)
	bus := s.Obs.Events()
	for bus.Subscribers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers = %d, want %d", bus.Subscribers(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, cancel := range cancels {
		cancel()
	}
	deadline = time.Now().Add(5 * time.Second)
	for bus.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber leak: %d still registered after all clients left", bus.Subscribers())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownWithStuckSSESubscriber: an SSE client that stays connected
// (its handler parked on the event bus) must not hold graceful shutdown for
// the whole grace window — Run's drain signal ends the stream immediately.
func TestShutdownWithStuckSSESubscriber(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()

	s := NewServer()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, addr, 30*time.Second) }()

	up := false
	for i := 0; i < 100; i++ {
		resp, err := http.Get(fmt.Sprintf("http://%s/", addr))
		if err == nil {
			resp.Body.Close()
			up = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !up {
		t.Fatalf("server never came up on %s", addr)
	}

	// The stuck subscriber: connected, never reading, never leaving.
	resp, err := http.Get(fmt.Sprintf("http://%s/events", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for s.Obs.Events().Subscribers() == 0 {
		time.Sleep(10 * time.Millisecond)
	}

	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown blocked behind a stuck SSE subscriber")
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("shutdown took %v with a 30s grace window; the drain signal should end SSE streams immediately", elapsed)
	}
}
