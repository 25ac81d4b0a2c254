// Package obs is the flow-wide observability layer: hierarchical spans with
// wall/CPU time and allocation deltas, monotonic counters and gauges safe
// for concurrent use, and pluggable sinks (human-readable text, JSON Lines,
// and a single-run metrics.json summary).
//
// The API is nil-safe end to end: every method on a nil *Trace, *Span,
// *Counter or *Gauge is a no-op, so instrumentation sites never need to
// guard on whether observability is enabled. A disabled call costs one nil
// check.
//
// The trace is the only telemetry handle a layer receives: it also carries
// the run's iteration-level event stream (internal/obs/events), attached
// with SetEvents and published through Trace.Publish.
//
// Typical use from a command:
//
//	tr := obs.New("fpgaflow")
//	tr.SetEvents(events.NewBus(0)) // optional: the convergence stream
//	sp := tr.Start("VPR place")
//	tr.Counter("place.moves").Add(n)
//	sp.End()
//	tr.WriteJSON(f) // metrics.json
package obs

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fpgaflow/internal/obs/events"
)

// Counter is a monotonic (or at least additive) integer metric. Add is safe
// from any number of goroutines.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter; no-op on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric, safe for concurrent use. The
// value and its "has been set" state live behind a single atomic pointer
// (nil = never set), so Set and Max observe both as one unit — a separate
// value/flag pair would let a concurrent first Set be clobbered by a
// smaller Max that read the flag before the store landed.
type Gauge struct {
	p atomic.Pointer[float64]
}

// Set records the gauge value; no-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.p.Store(&v)
}

// Max raises the gauge to v if v is larger than the current value (or the
// gauge was never set).
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.p.Load()
		if old != nil && *old >= v {
			return
		}
		if g.p.CompareAndSwap(old, &v) {
			return
		}
	}
}

// Value returns the gauge value (0 on nil or never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	p := g.p.Load()
	if p == nil {
		return 0
	}
	return *p
}

// isSet reports whether the gauge has ever been written.
func (g *Gauge) isSet() bool { return g != nil && g.p.Load() != nil }

// Span is one timed region of the run. Spans nest: a span started while
// another is open becomes its child. Spans are intended for the sequential
// stage structure of the flow (start and end on one goroutine); concurrent
// work inside a span reports through counters instead.
type Span struct {
	tr *Trace

	// Name is the span label (e.g. the flow tool name).
	Name string
	// Path is the slash-joined ancestry, e.g. "flow/VPR place".
	Path string
	// Depth is 0 for root spans.
	Depth int
	// Detail is a free-form annotation (the stage report line).
	Detail string

	start      time.Time
	startOff   time.Duration // offset from trace start
	cpuStart   time.Duration
	allocStart uint64
	mallocs0   uint64

	// Wall, CPU, AllocBytes and Mallocs are populated by End.
	Wall       time.Duration
	CPU        time.Duration
	AllocBytes uint64
	Mallocs    uint64

	ended bool
}

// SetDetail annotates the span; no-op on nil.
func (s *Span) SetDetail(format string, args ...interface{}) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Detail = fmt.Sprintf(format, args...)
	s.tr.mu.Unlock()
}

// End closes the span, recording wall time, process CPU time delta and
// allocation deltas. Ending twice or on nil is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	wall := time.Since(s.start)
	cpu := processCPUTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.Wall = wall
	if cpu > s.cpuStart {
		s.CPU = cpu - s.cpuStart
	}
	if ms.TotalAlloc > s.allocStart {
		s.AllocBytes = ms.TotalAlloc - s.allocStart
	}
	if ms.Mallocs > s.mallocs0 {
		s.Mallocs = ms.Mallocs - s.mallocs0
	}
	// Pop this span (and anything left dangling above it) off the stack.
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s {
			t.stack = t.stack[:i]
			break
		}
	}
	if t.sink != nil {
		t.sink.SpanEnd(s)
	}
}

// Sink receives live observability events (see JSONLSink).
type Sink interface {
	// SpanEnd is called under the trace lock when a span closes.
	SpanEnd(s *Span)
}

// Trace is the root collector for one run: a tree of spans plus named
// counters and gauges. All methods are safe for concurrent use and safe on
// a nil receiver.
type Trace struct {
	name  string
	start time.Time
	cpu0  time.Duration

	mu      sync.Mutex
	traceID string
	spans   []*Span // completed-or-open spans in start order
	stack   []*Span // currently open spans (innermost last)
	sink    Sink
	bus     atomic.Pointer[events.Bus]

	counters      sync.Map // string -> *Counter
	gauges        sync.Map // string -> *Gauge
	histograms    sync.Map // string -> *Histogram
	counterVecs   sync.Map // string -> *CounterVec
	histogramVecs sync.Map // string -> *HistogramVec
}

// New creates a trace named after the run (tool or design name).
func New(name string) *Trace {
	return &Trace{name: name, start: time.Now(), cpu0: processCPUTime()}
}

// Name returns the trace name ("" on nil).
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// SetTraceID stamps the trace with a correlation ID (the per-job trace ID
// carried through the farm); no-op on nil.
func (t *Trace) SetTraceID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.traceID = id
	t.mu.Unlock()
}

// TraceID returns the correlation ID ("" on nil or unset).
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

// SetEvents attaches the run's event bus (nil detaches it); no-op on nil.
func (t *Trace) SetEvents(b *events.Bus) {
	if t != nil {
		t.bus.Store(b)
	}
}

// Events returns the attached event bus, nil on a nil trace or when none
// is attached. Hot loops guard on Events().Enabled() before building a
// payload: with no trace that is one nil check, with a trace one atomic
// load more.
func (t *Trace) Events() *events.Bus {
	if t == nil {
		return nil
	}
	return t.bus.Load()
}

// Publish stamps the event with the trace's TraceID and delivers it on the
// attached bus; no-op when no enabled bus is attached. Runs sharing one bus
// (farm jobs) stay distinguishable by their trace IDs.
func (t *Trace) Publish(ev events.Event) {
	if b := t.Events(); b.Enabled() {
		ev.TraceID = t.TraceID()
		b.Publish(ev)
	}
}

// MergeFrom folds o's metrics into t: counters and histograms add,
// labeled families merge child-by-child, and gauges from o win (last
// writer semantics). Spans are not merged — span trees stay per-run; the
// farm persists a job's span tree separately and merges only the
// aggregable metrics into the service-wide trace. No-op when either side
// is nil.
func (t *Trace) MergeFrom(o *Trace) {
	if t == nil || o == nil {
		return
	}
	for name, v := range o.Counters() {
		t.Counter(name).Add(v)
	}
	for name, v := range o.Gauges() {
		t.Gauge(name).Set(v)
	}
	o.histograms.Range(func(k, v interface{}) bool {
		t.Histogram(k.(string)).Merge(v.(*Histogram))
		return true
	})
	o.counterVecs.Range(func(k, v interface{}) bool {
		src := v.(*CounterVec)
		dst := t.CounterVec(k.(string), src.Label())
		for value, n := range src.Values() {
			dst.Add(value, n)
		}
		return true
	})
	o.histogramVecs.Range(func(k, v interface{}) bool {
		src := v.(*HistogramVec)
		dst := t.HistogramVec(k.(string), src.Label())
		src.mu.RLock()
		children := make(map[string]*Histogram, len(src.children))
		for value, h := range src.children {
			children[value] = h
		}
		src.mu.RUnlock()
		for value, h := range children {
			dst.WithLabel(value).Merge(h)
		}
		return true
	})
}

// SetSink installs a live event sink (e.g. a JSONLSink); no-op on nil.
func (t *Trace) SetSink(s Sink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = s
	t.mu.Unlock()
}

// Start opens a span as a child of the innermost open span. Returns nil on
// a nil trace (and every Span method tolerates that).
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &Span{
		tr:         t,
		Name:       name,
		start:      time.Now(),
		cpuStart:   processCPUTime(),
		allocStart: ms.TotalAlloc,
		mallocs0:   ms.Mallocs,
	}
	s.startOff = s.start.Sub(t.start)
	t.mu.Lock()
	if n := len(t.stack); n > 0 {
		parent := t.stack[n-1]
		s.Path = parent.Path + "/" + name
		s.Depth = parent.Depth + 1
	} else {
		s.Path = name
	}
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s)
	t.mu.Unlock()
	return s
}

// Counter returns (creating on first use) the named counter; nil on a nil
// trace.
func (t *Trace) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	if c, ok := t.counters.Load(name); ok {
		return c.(*Counter)
	}
	c, _ := t.counters.LoadOrStore(name, &Counter{})
	return c.(*Counter)
}

// Add is shorthand for Counter(name).Add(n).
func (t *Trace) Add(name string, n int64) { t.Counter(name).Add(n) }

// Gauge returns (creating on first use) the named gauge; nil on a nil
// trace.
func (t *Trace) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	if g, ok := t.gauges.Load(name); ok {
		return g.(*Gauge)
	}
	g, _ := t.gauges.LoadOrStore(name, &Gauge{})
	return g.(*Gauge)
}

// SetGauge is shorthand for Gauge(name).Set(v).
func (t *Trace) SetGauge(name string, v float64) { t.Gauge(name).Set(v) }

// Counters returns a name-sorted snapshot of all counters.
func (t *Trace) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	out := make(map[string]int64)
	t.counters.Range(func(k, v interface{}) bool {
		out[k.(string)] = v.(*Counter).Value()
		return true
	})
	return out
}

// Gauges returns a snapshot of all gauges that have been set.
func (t *Trace) Gauges() map[string]float64 {
	if t == nil {
		return nil
	}
	out := make(map[string]float64)
	t.gauges.Range(func(k, v interface{}) bool {
		g := v.(*Gauge)
		if g.isSet() {
			out[k.(string)] = g.Value()
		}
		return true
	})
	return out
}

// Spans returns the spans in start order (completed spans carry their
// timings; open spans have zero Wall).
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// MemSnapshot captures the current allocation state (runtime.ReadMemStats)
// into gauges: mem.heap_alloc_bytes, mem.total_alloc_bytes, mem.sys_bytes,
// mem.num_gc.
func (t *Trace) MemSnapshot() {
	if t == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.SetGauge("mem.heap_alloc_bytes", float64(ms.HeapAlloc))
	t.SetGauge("mem.total_alloc_bytes", float64(ms.TotalAlloc))
	t.SetGauge("mem.sys_bytes", float64(ms.Sys))
	t.SetGauge("mem.num_gc", float64(ms.NumGC))
}

// sortedKeys returns map keys in sorted order (stable sink output).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
