package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"fpgaflow/internal/circuits"
	"fpgaflow/internal/core"
	"fpgaflow/internal/jobs"
	"fpgaflow/internal/obs"
)

const (
	farmClients = 2
	farmWorkers = 2
	// farmMinJobs is sixteen whole passes of the 13-design suite, about
	// 15 s of jobs: short bursts of host load average out over that
	// window. Whole passes keep every design's share of the samples
	// equal, so the median does not move with where a run stops.
	farmMinJobs = 208
	// jobTimeout bounds one job from Submit to its terminal state.
	jobTimeout = 120 * time.Second
)

// farm is one job service on a fresh state directory.
type farm struct {
	dir   string
	svc   *jobs.Service
	suite []circuits.Benchmark
	base  int64 // flow seed of sequence number 0
}

func openFarm(seed int64, tr *obs.Trace) (*farm, error) {
	if err := os.MkdirAll(outRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outRoot, "farm-")
	if err != nil {
		return nil, err
	}
	svc, err := jobs.Open(jobs.Config{Dir: dir, Workers: farmWorkers, Obs: tr})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &farm{dir: dir, svc: svc, suite: circuits.Suite(), base: seed << 20}, nil
}

func (f *farm) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	err := f.svc.Close(ctx)
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	return err
}

// spec is the job of sequence number seq: suite design seq mod 13 with
// its own flow seed, so no two submissions share a fingerprint.
func (f *farm) spec(seq, client int) jobs.Spec {
	b := f.suite[seq%len(f.suite)]
	return jobs.Spec{Tenant: fmt.Sprintf("client%d", client), Name: b.Name, Source: b.VHDL,
		Options: jobs.FlowOptions{Seed: f.base + int64(seq)}}
}

// farmJob is one job as its client saw it.
type farmJob struct {
	seq     int
	spec    jobs.Spec
	submit  time.Duration // the Submit call
	latency time.Duration // Submit to terminal state
	st      jobs.Status
	err     error
}

func (j *farmJob) good() bool {
	return j.err == nil && j.st.State == jobs.StateSucceeded && j.st.Metrics != nil && j.st.Metrics.Verified
}

// passes runs the closed-loop clients over whole passes of the suite,
// sequence numbers from first on, until at least minJobs jobs have run
// and seconds have passed. Each client submits its next job when its
// previous one has ended. With rec set, every job gets a span with its
// Submit call as a child.
func (f *farm) passes(first, minJobs int, seconds float64, rec *recorder) ([]*farmJob, delta) {
	var mu sync.Mutex
	var out []*farmJob
	next := 0
	done := false
	u0 := now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !done && next%len(f.suite) == 0 && next >= minJobs && time.Since(u0.wall).Seconds() >= seconds {
			done = true
		}
		if done {
			return 0, false
		}
		next++
		return first + next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < farmClients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for seq, ok := take(); ok; seq, ok = take() {
				j := f.run(seq, client, rec)
				mu.Lock()
				out = append(out, j)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	busy := u0.to(now())
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out, busy
}

func (f *farm) run(seq, client int, rec *recorder) *farmJob {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	j := &farmJob{seq: seq, spec: f.spec(seq, client)}
	jobSpan, subSpan := -1, -1
	if rec != nil {
		u := now()
		jobSpan = rec.open(-1, fmt.Sprintf("job %d %s", seq, j.spec.Name), "", u)
		subSpan = rec.open(jobSpan, "submit", "", u)
	}
	t0 := time.Now()
	j.st, j.err = f.svc.Submit(ctx, j.spec)
	j.submit = time.Since(t0)
	if rec != nil {
		rec.close(subSpan, now())
	}
	if j.err == nil {
		j.st, j.err = f.svc.Wait(ctx, j.st.ID)
	}
	j.latency = time.Since(t0)
	if rec != nil {
		rec.close(jobSpan, now())
	}
	return j
}

// direct compiles a job's spec through core.RunVHDL with the options the
// service gives it, outside the service.
func direct(spec jobs.Spec, rec *recorder) (*core.Result, error) {
	opts := core.Options{Seed: spec.Options.Seed, Retry: core.DefaultRetryPolicy(),
		PlaceWorkers: workers, RouteWorkers: workers}
	if rec != nil {
		opts.Obs = obs.New("compile " + spec.Name)
		opts.StageStart = rec.stageStart
		rec.beginCompile(spec.Name, -1)
	}
	res, err := core.RunVHDL(spec.Source, opts)
	if rec != nil {
		rec.endCompile(opts.Obs, res)
	}
	return res, err
}

// checkPasses enforces the farm's workload properties: every pass holds
// each suite design once, no submission was coalesced onto another job
// and no job was re-queued.
func (f *farm) checkPasses(js []*farmJob) error {
	ids := map[string]bool{}
	for i, j := range js {
		if want := f.suite[j.seq%len(f.suite)].Name; i%len(f.suite) != j.seq%len(f.suite) || j.spec.Name != want {
			return fmt.Errorf("%w: farm pass order broken at job %d", errInvalid, j.seq)
		}
		if j.err != nil {
			continue
		}
		if ids[j.st.ID] {
			return fmt.Errorf("%w: farm submission %d was deduplicated onto job %s", errInvalid, j.seq, j.st.ID)
		}
		ids[j.st.ID] = true
		if j.st.Attempt != 1 {
			return fmt.Errorf("%w: farm job %s ran %d times (re-queued)", errInvalid, j.st.ID, j.st.Attempt)
		}
	}
	if len(js)%len(f.suite) != 0 {
		return fmt.Errorf("%w: farm ran %d jobs, not whole passes", errInvalid, len(js))
	}
	return nil
}

// runFarm runs the farm-suite workload: a timed run, or a traced one.
func runFarm(cfg config) (*result, error) {
	setup := func() (*farm, error) {
		f, err := openFarm(cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		warm, _ := f.passes(0, len(f.suite), 0, nil)
		for _, j := range warm {
			if !j.good() {
				f.close()
				return nil, fmt.Errorf("warm-up job %s failed: %v %s", j.spec.Name, j.err, j.st.Error)
			}
		}
		return f, nil
	}
	if cfg.trace {
		return traceFarm(cfg, setup)
	}
	f, setupS, err := medianSetup(setups, setup,
		func(f *farm) {
			if err := f.close(); err != nil {
				warnf("closing a set-up farm: %v", err)
			}
		})
	if err != nil {
		return nil, err
	}
	first := len(f.suite)
	js, busy := f.passes(first, farmMinJobs, cfg.seconds, nil)
	if err := f.close(); err != nil {
		return nil, err
	}
	if err := f.checkPasses(js); err != nil {
		return nil, err
	}
	t := &timed{setupS: setupS, busy: busy}
	for _, j := range js {
		t.attempted++
		t.latencies = append(t.latencies, j.latency.Seconds())
		if !j.good() {
			warnf("farm job %d (%s) failed: %v %s %s", j.seq, j.spec.Name, j.err, j.st.State, j.st.Error)
			continue
		}
		t.good++
	}
	// QoR of the first pass. Job status has no energy figure, so every
	// spec of that pass is also compiled directly, outside the timed
	// region; the direct bitstream must match the job's artifact digest.
	for _, j := range js[:len(f.suite)] {
		if !j.good() {
			continue
		}
		res, err := direct(j.spec, nil)
		if err != nil {
			return nil, fmt.Errorf("direct compile of %s: %w", j.spec.Name, err)
		}
		sum := sha256.Sum256(res.Encoded)
		if hex.EncodeToString(sum[:]) != j.st.Artifact {
			warnf("farm job %s (%s): bitstream differs from a direct compile of the same spec", j.st.ID, j.spec.Name)
			t.good--
			continue
		}
		m := j.st.Metrics
		t.qor.add(m.LUTs, m.CLBs, m.ChannelWidth, m.Wirelength, m.CriticalPath, res.Metrics.EnergyPJ, m.BitstreamB*8)
	}
	return t.result(), nil
}

// traceFarm is the traced farm run: whole passes on an untraced service,
// the same on a service with jobs.Config.Obs set and job spans recorded,
// then the specs of the traced service's first pass compiled directly
// with the stage recorder for the per-layer numbers.
func traceFarm(cfg config, setup func() (*farm, error)) (*result, error) {
	plainFarm, err := setup()
	if err != nil {
		return nil, err
	}
	plain, _ := plainFarm.passes(len(plainFarm.suite), farmMinJobs, cfg.seconds, nil)
	if err := plainFarm.close(); err != nil {
		return nil, err
	}

	tr := obs.New("farm")
	f, err := openFarm(cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	js, _ := f.passes(0, farmMinJobs, cfg.seconds, rec)
	if err := f.close(); err != nil {
		return nil, err
	}
	for _, set := range [][]*farmJob{plain, js} {
		if err := f.checkPasses(set); err != nil {
			return nil, err
		}
	}
	counters := tr.Counters()
	if counters["jobs.deduped"] != 0 || counters["jobs.requeued"] != 0 {
		return nil, fmt.Errorf("%w: farm deduplicated %d and re-queued %d jobs", errInvalid,
			counters["jobs.deduped"], counters["jobs.requeued"])
	}

	good := 0
	for _, j := range js {
		if j.good() {
			good++
		}
	}
	for _, j := range js[:len(f.suite)] {
		if res, err := direct(j.spec, rec); err != nil || !res.Verified {
			warnf("direct compile of %s failed: %v", j.spec.Name, err)
			good--
		}
	}
	if err := rec.check(); err != nil {
		return nil, err
	}
	for _, c := range rec.compiles {
		if len(c.attempts) != 1 {
			return nil, fmt.Errorf("%w: farm design %s took %d attempts", errInvalid, c.name, len(c.attempts))
		}
	}

	m := rec.layerMetrics()
	lat := func(set []*farmJob) []float64 {
		var xs []float64
		for _, j := range set {
			xs = append(xs, j.latency.Seconds())
		}
		return xs
	}
	var submits []float64
	for _, j := range js {
		submits = append(submits, j.submit.Seconds())
	}
	hist := tr.Histograms()
	m["jobs.submit_s_p50"] = metric{quantile(submits, 0.5), "s"}
	m["jobs.queue_wait_s_p50"] = metric{hist["jobs.queue_wait_seconds"].Quantile(0.5), "s"}
	m["jobs.run_s_p50"] = metric{hist["jobs.run_seconds"].Quantile(0.5), "s"}
	m["jobs.wal_sync_s_p50"] = metric{hist["jobs.wal_sync_seconds"].Quantile(0.5), "s"}
	m["jobs.requeued"] = metric{float64(counters["jobs.requeued"]), "count"}
	m["jobs.deduped"] = metric{float64(counters["jobs.deduped"]), "count"}
	m["bench.trace_overhead"] = metric{quantile(lat(js), 0.5)/quantile(lat(plain), 0.5) - 1, "fraction"}
	if err := rec.write(cfg, m); err != nil {
		return nil, err
	}
	n := len(js)
	return &result{Correct: good == n, Attempted: n, Failed: n - good, Metrics: m}, nil
}

// addZeroJobs adds the farm-only metrics to a workload without a job
// service.
func addZeroJobs(m map[string]metric) {
	for _, name := range []string{"jobs.submit_s_p50", "jobs.queue_wait_s_p50", "jobs.run_s_p50", "jobs.wal_sync_s_p50"} {
		m[name] = metric{0, "s"}
	}
	m["jobs.requeued"] = metric{0, "count"}
	m["jobs.deduped"] = metric{0, "count"}
}
