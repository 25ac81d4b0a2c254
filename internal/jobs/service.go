package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fpgaflow/internal/core"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/obs/events"
)

// State is a job's lifecycle position. The machine is strictly forward:
//
//	queued -> running -> succeeded | failed | canceled
//	   \--------------------------------^ (cancel before start)
//	running -> queued (worker crash requeue, bounded by MaxAttempts)
//
// Exactly one terminal transition ever takes effect per job — a duplicate
// terminal record in a replayed WAL, or a second worker racing a
// cancellation, is ignored idempotently.
type State string

const (
	// StateQueued: durably acknowledged, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is executing the flow.
	StateRunning State = "running"
	// StateSucceeded: terminal; artifacts are on disk.
	StateSucceeded State = "succeeded"
	// StateFailed: terminal; Error holds the cause.
	StateFailed State = "failed"
	// StateCanceled: terminal; the tenant asked for it to stop.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// ErrNotFound is returned for an unknown job ID.
var ErrNotFound = errors.New("jobs: no such job")

// ErrDraining is returned by Submit once shutdown has begun: the service
// no longer admits work (HTTP maps it to 503).
var ErrDraining = errors.New("jobs: service is draining")

// errKilled marks operations refused after a simulated crash (chaos
// harness only; a real SIGKILL needs no bookkeeping).
var errKilled = errors.New("jobs: service killed")

// Runner executes one job's flow. The default runner drives the hardened
// core runner; tests inject crashy, slow or instant runners.
type Runner func(ctx context.Context, spec Spec) (*core.Result, error)

// Config configures a Service.
type Config struct {
	// Dir is the service's state directory: Dir/wal.jsonl plus one
	// artifact directory per job under Dir/jobs/.
	Dir string
	// Workers is the worker-pool size (default 2).
	Workers int
	// QueueLimit bounds jobs waiting for a worker; submissions beyond it
	// are rejected with a backlog QuotaError (default 64).
	QueueLimit int
	// TenantRate is each tenant's sustained submissions/second; 0 disables
	// rate limiting.
	TenantRate float64
	// TenantBurst is the token-bucket capacity (default 4 when rated).
	TenantBurst int
	// MaxAttempts bounds executions of one job across worker crashes and
	// process restarts; a job exceeding it fails terminally (default 3).
	MaxAttempts int
	// Runner overrides the flow executor (tests; nil = the real flow).
	Runner Runner
	// Obs receives the jobs.* counters and queue gauges (nil = none). Its
	// event bus (Trace.Events) receives job lifecycle events (KindJob)
	// and, through each job's own trace, the flow telemetry of the jobs
	// themselves, stamped with the job's trace ID.
	Obs *obs.Trace
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 4
	}
}

// Status is the externally visible snapshot of one job.
type Status struct {
	ID          string  `json:"id"`
	Tenant      string  `json:"tenant"`
	Name        string  `json:"name,omitempty"`
	State       State   `json:"state"`
	Attempt     int     `json:"attempt,omitempty"`
	Error       string  `json:"error,omitempty"`
	Fingerprint string  `json:"fingerprint"`
	TraceID     string  `json:"trace_id,omitempty"`
	Artifact    string  `json:"artifact,omitempty"`
	Metrics     *Result `json:"metrics,omitempty"`
}

// Result is the small metrics summary persisted with a succeeded job.
type Result struct {
	LUTs         int     `json:"luts"`
	CLBs         int     `json:"clbs"`
	ChannelWidth int     `json:"channel_width"`
	Wirelength   int     `json:"wirelength"`
	CriticalPath float64 `json:"critical_path_ns"`
	PowerMW      float64 `json:"power_mw"`
	BitstreamB   int     `json:"bitstream_bytes"`
	Verified     bool    `json:"verified"`
}

// job is the in-memory record; all fields are guarded by Service.mu.
type job struct {
	id        string
	spec      Spec
	fp        string
	state     State
	attempt   int
	errText   string
	artifact  string // hex digest of the encoded bitstream
	metrics   *Result
	canceled  bool               // cancel requested
	finishing bool               // a finisher has claimed the terminal commit
	cancel    context.CancelFunc // live while running
	done      chan struct{}      // closed on terminal transition

	// tr is the per-job trace: one deterministic trace ID per submission,
	// carried via context through admission, queue, worker and the hardened
	// runner, persisted as the trace.json artifact at the terminal
	// transition. qspan is the open queue-wait span while the job sits in
	// the FIFO.
	tr      *obs.Trace
	traceID string
	qspan   *obs.Span
}

// Service is the crash-safe job queue: durable admission, a worker pool
// over the hardened flow runner, per-tenant quotas, and WAL-replay
// recovery. All methods are safe for concurrent use.
type Service struct {
	cfg    Config
	dir    string
	wal    *wal
	tr     *obs.Trace
	clock  func() time.Time
	quotas *quotas

	runCtx    context.Context
	runCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string          // submission order (for List)
	active   map[string]string // tenant+fp -> non-terminal job ID (idempotent resubmit)
	nextID   uint64
	draining bool

	qmu   sync.Mutex
	q     []string
	qcond *sync.Cond

	killed atomic.Bool
	wg     sync.WaitGroup

	// TailDamage records WAL tail corruption found during recovery (nil
	// when the log replayed cleanly). The damage is already repaired —
	// the tail was truncated before the service started appending.
	TailDamage *TailError
}

// Open loads (or creates) the service state under cfg.Dir, replays the
// WAL, repairs a damaged tail, re-queues every job that had been
// acknowledged but had not reached a terminal state, and starts the worker
// pool. The returned service is serving immediately.
func Open(cfg Config) (*Service, error) {
	cfg.fill()
	if cfg.Dir == "" {
		return nil, errors.New("jobs: Config.Dir is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating state dir: %w", err)
	}
	s := &Service{
		cfg:    cfg,
		dir:    cfg.Dir,
		tr:     cfg.Obs,
		quotas: newQuotas(cfg.TenantRate, cfg.TenantBurst),
		jobs:   make(map[string]*job),
		active: make(map[string]string),
	}
	//fpgavet:ignore walltime the job service's single wall-clock source: WAL timestamps and quota refill are operational time, never QoR-affecting; tests inject a fake clock here
	s.clock = time.Now
	s.qcond = sync.NewCond(&s.qmu)
	s.runCtx, s.runCancel = context.WithCancel(context.Background())

	// Materialize every counter at zero so metrics consumers can rely on
	// the full jobs.* namespace existing even on an idle service.
	for _, c := range []string{
		"jobs.submitted", "jobs.deduped", "jobs.completed", "jobs.failed",
		"jobs.canceled", "jobs.requeued", "jobs.recovered",
		"jobs.rejected_quota", "jobs.rejected_backlog",
		"jobs.wal_records", "jobs.wal_tail_dropped", "jobs.wal_dup_terminal",
		"jobs.trace_write_errors",
	} {
		s.tr.Counter(c)
	}
	s.tr.SetGauge("jobs.queue_depth", 0)
	s.tr.SetGauge("jobs.running", 0)

	if err := s.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover replays the WAL into the job table and re-queues interrupted
// jobs. Replay is idempotent over duplicated records: a second terminal
// record for a job is counted and ignored, never applied.
func (s *Service) recover() error {
	path := s.walPath()
	records, validOff, tail, err := replayWAL(path)
	if err != nil {
		return err
	}
	if tail != nil {
		s.TailDamage = tail
		s.tr.Add("jobs.wal_tail_dropped", int64(tail.Lost))
	}
	var lastSeq uint64
	for i := range records {
		rec := &records[i]
		if rec.Seq > lastSeq {
			lastSeq = rec.Seq
		}
		j := s.jobs[rec.Job]
		switch rec.Kind {
		case RecSubmit:
			if j != nil {
				continue // duplicate submit (replayed tail): first wins
			}
			j = &job{id: rec.Job, spec: *rec.Spec, fp: rec.Fingerprint,
				state: StateQueued, done: make(chan struct{})}
			if j.fp == "" {
				j.fp = rec.Spec.Fingerprint()
			}
			s.jobs[j.id] = j
			s.order = append(s.order, j.id)
			if n, ok := numericSuffix(j.id); ok && n >= s.nextID {
				s.nextID = n
			}
		case RecStart:
			if j == nil || j.state.Terminal() {
				continue
			}
			if rec.Attempt > j.attempt {
				j.attempt = rec.Attempt
			}
			j.state = StateRunning
		case RecCancel:
			if j == nil || j.state.Terminal() {
				continue
			}
			j.canceled = true
		case RecDone:
			if j == nil {
				continue
			}
			if j.state.Terminal() {
				s.tr.Add("jobs.wal_dup_terminal", 1)
				continue
			}
			j.state = rec.State
			j.errText = rec.Error
			j.artifact = rec.Artifact
			close(j.done)
		}
	}
	s.wal, err = openWAL(path, validOff, lastSeq)
	if err != nil {
		return err
	}
	// Re-queue in submission order: anything acknowledged but not terminal
	// runs (again). A crash between artifact write and the done record
	// re-runs the job; the flow is deterministic in (source, options), so
	// the rewritten artifacts are identical — this is what makes replay
	// idempotent.
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state.Terminal() {
			continue
		}
		j.state = StateQueued
		s.active[j.spec.Tenant+"/"+j.fp] = j.id
		s.tr.Add("jobs.recovered", 1)
		s.startJobTrace(j)
		s.markQueued(j)
		s.enqueue(j.id)
		s.publishJobEvent(j, "recovered")
	}
	return nil
}

// startJobTrace creates the job's trace with its deterministic trace ID
// (sha256 of job ID + spec fingerprint — a replayed submission carries the
// same ID across process restarts) on the service's event bus, so the
// job's flow telemetry streams alongside the lifecycle events.
func (s *Service) startJobTrace(j *job) {
	j.traceID = obs.DeriveTraceID(j.id, j.fp)
	j.tr = obs.New("job " + j.id)
	j.tr.SetTraceID(j.traceID)
	j.tr.SetEvents(s.tr.Events())
}

// markQueued opens the job's queue-wait span; call just before enqueue.
// Callers either hold Service.mu or own the job exclusively (recovery).
func (s *Service) markQueued(j *job) {
	j.qspan = j.tr.Start("queue wait")
}

// endQueueWait closes the queue-wait span (if one is open) and feeds the
// service-wide queue-wait distribution. Callers hold Service.mu.
func (s *Service) endQueueWait(j *job) {
	if j.qspan == nil {
		return
	}
	j.qspan.End()
	s.tr.Histogram("jobs.queue_wait_seconds").Observe(j.qspan.Wall.Seconds())
	j.qspan = nil
}

// numericSuffix extracts the numeric part of a "j000042" job ID.
func numericSuffix(id string) (uint64, bool) {
	if !strings.HasPrefix(id, "j") {
		return 0, false
	}
	var n uint64
	for _, r := range id[1:] {
		if r < '0' || r > '9' {
			return 0, false
		}
		n = n*10 + uint64(r-'0')
	}
	return n, true
}

func (s *Service) walPath() string { return filepath.Join(s.dir, "wal.jsonl") }

// jobDir is the artifact directory for one job.
func (s *Service) jobDir(id string) string { return filepath.Join(s.dir, "jobs", id) }

// append commits a WAL record unless the service has been chaos-killed
// (in which case the write is suppressed, exactly as if the process had
// died before reaching the syscall).
func (s *Service) append(rec *Record) error {
	if s.killed.Load() {
		return errKilled
	}
	t0 := s.clock()
	rec.TNS = t0.UnixNano()
	if err := s.wal.append(rec); err != nil {
		return err
	}
	// append marshals, writes and fsyncs under the WAL lock; its latency is
	// the floor under every admission and terminal commit, so it gets its
	// own distribution. s.clock is the service's sanctioned wall-clock
	// source; fake clocks may stand still or jump, so only forward deltas
	// are observed.
	if d := s.clock().Sub(t0); d >= 0 {
		s.tr.Histogram("jobs.wal_sync_seconds").Observe(d.Seconds())
	}
	s.tr.Add("jobs.wal_records", 1)
	return nil
}

// Submit validates, rate-limits and durably enqueues a job. On success the
// job is acknowledged: its spec has been fsynced to the WAL and it will
// reach a terminal state exactly once, even across process crashes. A
// resubmission of an identical (tenant, source, options) spec while the
// original is still in flight coalesces onto the existing job.
func (s *Service) Submit(ctx context.Context, spec Spec) (Status, error) {
	if err := ctx.Err(); err != nil {
		return Status{}, err
	}
	if s.killed.Load() {
		return Status{}, errKilled
	}
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Status{}, ErrDraining
	}
	fp := spec.Fingerprint()
	if id, ok := s.active[spec.Tenant+"/"+fp]; ok {
		st := s.jobs[id].status()
		s.mu.Unlock()
		s.tr.Add("jobs.deduped", 1)
		return st, nil
	}
	s.mu.Unlock()

	// Admission: the tenant's token bucket first (one tenant's burst only
	// drains its own budget), then the shared queue-depth backpressure.
	if err := s.quotas.admit(spec.Tenant, s.clock()); err != nil {
		s.tr.Add("jobs.rejected_quota", 1)
		return Status{}, err
	}
	if depth := s.queueDepth(); depth >= s.cfg.QueueLimit {
		s.tr.Add("jobs.rejected_backlog", 1)
		return Status{}, &QuotaError{Tenant: spec.Tenant, Reason: "backlog",
			RetryAfter: time.Duration(depth/s.cfg.Workers+1) * time.Second}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Status{}, ErrDraining
	}
	s.nextID++
	j := &job{
		id:    fmt.Sprintf("j%06d", s.nextID),
		spec:  spec,
		fp:    fp,
		state: StateQueued,
		done:  make(chan struct{}),
	}
	s.startJobTrace(j)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.active[spec.Tenant+"/"+fp] = j.id
	s.mu.Unlock()

	// Durable ack: the submit record is fsynced before the job is queued
	// or the caller told anything. Failure unwinds the reservation.
	if err := s.append(&Record{Kind: RecSubmit, Job: j.id, Spec: &spec, Fingerprint: fp}); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.id)
		delete(s.active, spec.Tenant+"/"+fp)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		return Status{}, err
	}
	s.tr.Add("jobs.submitted", 1)
	// Per-tenant admission counters are labeled and cardinality-capped: a
	// hostile tenant set collapses into the vec's overflow bucket instead
	// of growing the metric space without bound.
	s.tr.CounterVec("jobs.submitted_by_tenant", "tenant").Add(spec.Tenant, 1)
	s.mu.Lock()
	s.markQueued(j)
	st := j.status()
	s.mu.Unlock()
	s.enqueue(j.id)
	s.publishJobEvent(j, "submitted")
	return st, nil
}

// enqueue appends a job ID to the FIFO and wakes one worker.
func (s *Service) enqueue(id string) {
	s.qmu.Lock()
	s.q = append(s.q, id)
	s.tr.SetGauge("jobs.queue_depth", float64(len(s.q)))
	s.qmu.Unlock()
	s.qcond.Signal()
}

// queueDepth reports how many jobs are waiting for a worker.
func (s *Service) queueDepth() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.q)
}

// nextJob blocks until work is available or the service drains.
func (s *Service) nextJob() (string, bool) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for len(s.q) == 0 && !s.stopWorkers() {
		s.qcond.Wait()
	}
	if s.stopWorkers() {
		return "", false
	}
	id := s.q[0]
	s.q = s.q[1:]
	s.tr.SetGauge("jobs.queue_depth", float64(len(s.q)))
	return id, true
}

// stopWorkers reports whether workers should exit instead of picking up
// more work (drain or chaos kill). Queued jobs stay in the WAL and resume
// on the next Open.
func (s *Service) stopWorkers() bool {
	if s.killed.Load() {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// worker is one pool goroutine: pull, run, commit, repeat. It never writes
// captured state directly — every mutation goes through the locked job
// table — and it never exits with a job half-committed except when the
// process (or the chaos harness) kills it.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		id, ok := s.nextJob()
		if !ok {
			return
		}
		s.runJob(id)
	}
}

// runJob executes one attempt of one job.
func (s *Service) runJob(id string) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil || j.state.Terminal() {
		s.mu.Unlock()
		return
	}
	s.endQueueWait(j)
	if j.canceled {
		s.mu.Unlock()
		s.finish(j, StateCanceled, "canceled before start", "", nil)
		return
	}
	if j.attempt >= s.cfg.MaxAttempts {
		att := j.attempt
		s.mu.Unlock()
		s.finish(j, StateFailed, fmt.Sprintf("gave up after %d interrupted attempts", att), "", nil)
		return
	}
	j.attempt++
	j.state = StateRunning
	rctx, cancel := context.WithCancel(s.runCtx)
	j.cancel = cancel
	attempt := j.attempt
	// The per-job trace rides the context from here on: the hardened core
	// runner and every flow stage report their spans into it, all under the
	// job's single trace ID.
	rctx = obs.ContextWithTrace(rctx, j.tr)
	s.mu.Unlock()
	defer cancel()

	s.tr.SetGauge("jobs.running", float64(s.runningCount()))
	defer func() { s.tr.SetGauge("jobs.running", float64(s.runningCount())) }()

	if err := s.append(&Record{Kind: RecStart, Job: id, Attempt: attempt}); err != nil {
		return // killed mid-commit: the job replays as queued on restart
	}
	s.publishJobEvent(j, "start")

	runStart := s.clock()
	res, err := s.runShielded(rctx, j.spec)
	if d := s.clock().Sub(runStart); d >= 0 {
		s.tr.Histogram("jobs.run_seconds").Observe(d.Seconds())
	}
	if s.killed.Load() {
		return // crashed mid-stage: no terminal record, recovery re-queues
	}
	switch {
	case err == nil:
		digest, metrics, aerr := s.writeArtifacts(id, j.spec, res)
		if aerr != nil {
			s.finish(j, StateFailed, fmt.Sprintf("artifact write: %v", aerr), "", nil)
			return
		}
		s.finish(j, StateSucceeded, "", digest, metrics)
	case errors.Is(err, context.Canceled) && s.isCanceled(j):
		s.finish(j, StateCanceled, "canceled while running", "", nil)
	case errors.Is(err, context.Canceled) && s.runCtx.Err() != nil:
		// Service-side hard cancellation (drain deadline): the tenant did
		// not ask for this, so the job must not go terminal. Leave it
		// checkpointed as queued; the next Open's recovery re-runs it.
		s.mu.Lock()
		j.state = StateQueued
		j.cancel = nil
		s.mu.Unlock()
	case isWorkerCrash(err):
		// The stage (or an injected chaos runner) tore down the worker's
		// execution. The job itself may be fine: re-queue it, bounded by
		// MaxAttempts, exactly like a process-level crash recovery would.
		s.tr.Add("jobs.requeued", 1)
		s.mu.Lock()
		j.state = StateQueued
		j.cancel = nil
		s.markQueued(j)
		s.mu.Unlock()
		s.publishJobEvent(j, "requeued")
		s.enqueue(id)
	default:
		s.finish(j, StateFailed, err.Error(), "", nil)
	}
}

// runShielded runs the configured runner, converting a panic into an error
// so one crashing job cannot take the worker pool down. The hardened core
// runner shields its own stages already; this guards injected runners and
// the glue between them.
func (s *Service) runShielded(ctx context.Context, spec Spec) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errWorkerPanic, r)
		}
	}()
	runner := s.cfg.Runner
	if runner == nil {
		runner = s.coreRunner
	}
	return runner(ctx, spec)
}

// errWorkerPanic classifies a panic that escaped a job runner.
var errWorkerPanic = errors.New("jobs: worker panic")

// isWorkerCrash reports whether the failure was the worker's execution
// being torn down (panic) rather than the job itself failing.
func isWorkerCrash(err error) bool {
	if errors.Is(err, errWorkerPanic) {
		return true
	}
	var pe *core.PanicError
	return errors.As(err, &pe)
}

// coreRunner is the production runner: the full hardened flow. The flow
// reports into the job's own trace (from the context) when one is
// attached; its metrics merge into the service-wide trace at the terminal
// transition, so service totals still accumulate exactly as before.
func (s *Service) coreRunner(ctx context.Context, spec Spec) (*core.Result, error) {
	opts := spec.coreOptions()
	opts.Obs = obs.TraceFromContext(ctx)
	if opts.Obs == nil {
		opts.Obs = s.tr
	}
	if netlist.IsBLIF(spec.Source) {
		return core.RunBLIFContext(ctx, spec.Source, opts)
	}
	return core.RunVHDLContext(ctx, spec.Source, opts)
}

func (s *Service) isCanceled(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.canceled
}

func (s *Service) runningCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, id := range s.order {
		if s.jobs[id].state == StateRunning {
			n++
		}
	}
	return n
}

// finish commits a job's terminal state: WAL first (fsynced), then the
// in-memory transition. A job already terminal is left untouched — this is
// the no-double-completion guard — and a suppressed WAL write (chaos kill)
// aborts the transition entirely, exactly like a crash before the commit.
func (s *Service) finish(j *job, state State, errText, digest string, metrics *Result) {
	s.mu.Lock()
	if j.state.Terminal() || j.finishing {
		s.mu.Unlock()
		return
	}
	j.finishing = true
	s.mu.Unlock()
	rec := &Record{Kind: RecDone, Job: j.id, State: state, Error: errText, Artifact: digest}
	if err := s.append(rec); err != nil {
		return // killed mid-commit: no terminal record hit the disk, so the
		// job is still open from the WAL's point of view and replays
	}
	s.mu.Lock()
	s.endQueueWait(j) // canceled-while-queued jobs go terminal with the span open
	s.mu.Unlock()
	// Persist the job's span tree before the job reads as terminal, so a
	// client that sees the terminal state — through Wait or a status poll —
	// always finds trace.json. Best-effort telemetry: a failed trace write
	// is counted, never turns a finished job into a failure.
	s.writeTrace(j)
	s.mu.Lock()
	j.state = state
	j.errText = errText
	j.artifact = digest
	j.metrics = metrics
	j.cancel = nil
	tenant := j.spec.Tenant
	delete(s.active, j.spec.Tenant+"/"+j.fp)
	s.mu.Unlock()
	switch state {
	case StateSucceeded:
		s.tr.Add("jobs.completed", 1)
	case StateFailed:
		s.tr.Add("jobs.failed", 1)
	case StateCanceled:
		s.tr.Add("jobs.canceled", 1)
	}
	s.tr.CounterVec("jobs.finished_by_tenant", "tenant").Add(tenant, 1)
	s.tr.MergeFrom(j.tr)
	s.mu.Lock()
	close(j.done)
	s.mu.Unlock()
	s.publishJobEvent(j, "done")
}

// writeTrace persists the job's span tree (queue wait, every attempt,
// every flow stage — one trace ID) as Dir/jobs/<id>/trace.json.
func (s *Service) writeTrace(j *job) {
	if j.tr == nil {
		return
	}
	dir := s.jobDir(j.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.tr.Add("jobs.trace_write_errors", 1)
		return
	}
	data, err := json.MarshalIndent(j.tr.Summary(), "", "  ")
	if err != nil {
		s.tr.Add("jobs.trace_write_errors", 1)
		return
	}
	if err := atomicWrite(filepath.Join(dir, "trace.json"), data); err != nil {
		s.tr.Add("jobs.trace_write_errors", 1)
	}
}

// writeArtifacts persists the job's outputs under Dir/jobs/<id>/ —
// design.bit (the encoded bitstream) and result.json (the metrics
// summary) — atomically (temp file + rename) and before the terminal WAL
// record, so a crash in between simply re-runs the deterministic flow and
// rewrites identical bytes.
func (s *Service) writeArtifacts(id string, spec Spec, res *core.Result) (digest string, metrics *Result, err error) {
	dir := s.jobDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	if res != nil && len(res.Encoded) > 0 {
		sum := sha256.Sum256(res.Encoded)
		digest = hex.EncodeToString(sum[:])
		if err := atomicWrite(filepath.Join(dir, "design.bit"), res.Encoded); err != nil {
			return "", nil, err
		}
	}
	if res != nil {
		m := res.Metrics
		metrics = &Result{
			LUTs: m.LUTs, CLBs: m.CLBs, ChannelWidth: m.ChannelWidth,
			Wirelength: m.WirelengthUsed, CriticalPath: m.CriticalPath * 1e9,
			PowerMW: m.PowerTotalMW, BitstreamB: len(res.Encoded), Verified: res.Verified,
		}
		data, jerr := json.MarshalIndent(struct {
			ID      string  `json:"id"`
			Name    string  `json:"name,omitempty"`
			Tenant  string  `json:"tenant"`
			Digest  string  `json:"bitstream_sha256,omitempty"`
			Metrics *Result `json:"metrics"`
		}{ID: id, Name: spec.Name, Tenant: spec.Tenant, Digest: digest, Metrics: metrics}, "", "  ")
		if jerr != nil {
			return "", nil, jerr
		}
		if err := atomicWrite(filepath.Join(dir, "result.json"), data); err != nil {
			return "", nil, err
		}
	}
	return digest, metrics, nil
}

// atomicWrite lands data at path via a temp file, fsync and rename.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Get returns a job's status snapshot.
func (s *Service) Get(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return Status{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j.status(), nil
}

// List returns every job's status in submission order, optionally
// filtered by tenant.
func (s *Service) List(tenant string) []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if tenant != "" && j.spec.Tenant != tenant {
			continue
		}
		out = append(out, j.status())
	}
	return out
}

// Cancel requests a job stop: a queued job goes terminal immediately, a
// running job's context is canceled and the worker commits the canceled
// state. Canceling a terminal job is a no-op returning its final status.
func (s *Service) Cancel(id string) (Status, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return Status{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if j.state.Terminal() {
		st := j.status()
		s.mu.Unlock()
		return st, nil
	}
	j.canceled = true
	cancel := j.cancel
	state := j.state
	s.mu.Unlock()

	if err := s.append(&Record{Kind: RecCancel, Job: id}); err != nil {
		return Status{}, err
	}
	s.publishJobEvent(j, "cancel")
	if state == StateRunning && cancel != nil {
		cancel() // the worker observes context.Canceled and finishes the job
	} else if state == StateQueued {
		s.finish(j, StateCanceled, "canceled while queued", "", nil)
	}
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	return st, nil
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (s *Service) Wait(ctx context.Context, id string) (Status, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return Status{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	select {
	case <-j.done:
		return s.Get(id)
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// ArtifactNames lists the artifact files available for a job (sorted).
func (s *Service) ArtifactNames(id string) ([]string, error) {
	if _, err := s.Get(id); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(s.jobDir(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && !strings.HasSuffix(e.Name(), ".tmp") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// ArtifactPath resolves one artifact file for a job, refusing path
// escapes.
func (s *Service) ArtifactPath(id, name string) (string, error) {
	if name == "" || name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		return "", fmt.Errorf("%w: artifact %q", ErrNotFound, name)
	}
	names, err := s.ArtifactNames(id)
	if err != nil {
		return "", err
	}
	for _, n := range names {
		if n == name {
			return filepath.Join(s.jobDir(id), name), nil
		}
	}
	return "", fmt.Errorf("%w: artifact %q of job %q", ErrNotFound, name, id)
}

// Stats is the introspection snapshot /metrics serves.
type Stats struct {
	Queued    int      `json:"queued"`
	Running   int      `json:"running"`
	Succeeded int      `json:"succeeded"`
	Failed    int      `json:"failed"`
	Canceled  int      `json:"canceled"`
	Tenants   []string `json:"tenants,omitempty"`
}

// Snapshot summarizes the job table by state.
func (s *Service) Snapshot() Stats {
	s.mu.Lock()
	st := Stats{}
	for _, id := range s.order {
		switch s.jobs[id].state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateSucceeded:
			st.Succeeded++
		case StateFailed:
			st.Failed++
		case StateCanceled:
			st.Canceled++
		}
	}
	s.mu.Unlock()
	st.Tenants = s.quotas.tenants()
	return st
}

// status snapshots a job; callers hold Service.mu.
func (j *job) status() Status {
	return Status{
		ID: j.id, Tenant: j.spec.Tenant, Name: j.spec.Name, State: j.state,
		Attempt: j.attempt, Error: j.errText, Fingerprint: j.fp,
		TraceID: j.traceID, Artifact: j.artifact, Metrics: j.metrics,
	}
}

// publishJobEvent emits one lifecycle event on the service trace's bus
// (nil-safe).
func (s *Service) publishJobEvent(j *job, action string) {
	if !s.tr.Events().Enabled() {
		return
	}
	s.mu.Lock()
	ev := &events.JobEvent{
		ID: j.id, Tenant: j.spec.Tenant, Action: action,
		State: string(j.state), Attempt: j.attempt, Reason: j.errText,
	}
	s.mu.Unlock()
	s.tr.Publish(events.Event{Kind: events.KindJob, Job: ev})
}

// Close drains the service: admission stops immediately, workers finish
// their current jobs within ctx's deadline (running jobs are hard-canceled
// once it expires; their requeue is the next process's recovery), and the
// WAL is flushed and closed. Close is idempotent.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	s.qcond.Broadcast()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		// Out of patience: hard-cancel running flows (they poll their
		// contexts) and give them a moment to observe it.
		s.runCancel()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
		}
	}
	s.runCancel()
	if s.killed.Load() {
		return nil // chaos kill: the WAL handle dies with the "process"
	}
	return s.wal.close()
}

// Kill simulates SIGKILL for the chaos harness: every subsequent WAL
// append, admission and worker pickup is suppressed as if the process had
// died, the in-memory state is abandoned, and running runners are
// canceled so their goroutines exit. The state directory is left exactly
// as a real crash would leave it; Open on the same directory performs
// recovery.
func (s *Service) Kill() {
	s.killed.Store(true)
	s.qcond.Broadcast()
	s.runCancel()
	s.wg.Wait()
	_ = s.wal.close()
}
