package obs

import "sync"

// DefaultVecCap bounds the number of distinct label values a vec tracks
// before new values collapse into the OverflowLabel child. The cap is the
// memory-safety contract for labels fed by external input (tenant IDs): a
// hostile tenant set costs at most cap+1 children, never unbounded growth.
const DefaultVecCap = 32

// OverflowLabel is the label value that absorbs observations once a vec
// reaches its cardinality cap.
const OverflowLabel = "other"

// family is a labeled metric family: children of one metric type (Counter
// or Histogram) keyed by one label value, capped at DefaultVecCap distinct
// values. CounterVec and HistogramVec are its two instances. All methods
// are safe for concurrent use and no-ops on nil.
type family[M any] struct {
	label string

	mu       sync.RWMutex
	children map[string]*M
}

// loadFamily returns (creating on first use) the family registered under
// name in m; the label key is fixed at first use.
func loadFamily[M any](m *sync.Map, name, label string) *family[M] {
	if f, ok := m.Load(name); ok {
		return f.(*family[M])
	}
	f, _ := m.LoadOrStore(name, &family[M]{label: label, children: map[string]*M{}})
	return f.(*family[M])
}

func (f *family[M]) labelKey() string {
	if f == nil {
		return ""
	}
	return f.label
}

// with returns the child for the label value, creating it on first use.
// Past the cardinality cap, unseen values share the OverflowLabel child.
// Returns nil on a nil family.
func (f *family[M]) with(value string) *M {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	m := f.children[value]
	f.mu.RUnlock()
	if m != nil {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m := f.children[value]; m != nil {
		return m
	}
	if len(f.children) >= DefaultVecCap {
		value = OverflowLabel
		if m := f.children[value]; m != nil {
			return m
		}
	}
	m = new(M)
	f.children[value] = m
	return m
}

// snapshot returns the children keyed by label value (nil on nil).
func (f *family[M]) snapshot() map[string]*M {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[string]*M, len(f.children))
	for k, m := range f.children {
		out[k] = m
	}
	return out
}

// mergeFrom folds every child of o into the matching child of f.
func (f *family[M]) mergeFrom(o *family[M], merge func(dst, src *M)) {
	for value, m := range o.snapshot() {
		merge(f.with(value), m)
	}
}

// familyValues reads every child of f that read accepts, keyed by label
// value (nil on a nil family).
func familyValues[M, V any](f *family[M], read func(*M) (V, bool)) map[string]V {
	children := f.snapshot()
	if children == nil {
		return nil
	}
	out := make(map[string]V, len(children))
	for k, m := range children {
		if v, ok := read(m); ok {
			out[k] = v
		}
	}
	return out
}

// familySnapshots snapshots every family registered in m: name -> (label
// key, values read by read).
func familySnapshots[M, V any](m *sync.Map, read func(*M) (V, bool)) map[string]VecSnapshot[V] {
	out := make(map[string]VecSnapshot[V])
	m.Range(func(k, v interface{}) bool {
		f := v.(*family[M])
		out[k.(string)] = VecSnapshot[V]{Label: f.label, Values: familyValues(f, read)}
		return true
	})
	return out
}

func counterValue(c *Counter) (int64, bool) { return c.Value(), true }

// histogramSnapshot reads a histogram child; empty children are omitted.
func histogramSnapshot(h *Histogram) (HistogramSnapshot, bool) {
	return h.Snapshot(), h.Count() > 0
}

// CounterVec is a family of Counters keyed by one label (tenant, stage,
// profile, ...) with an explicit cardinality cap. All methods are safe for
// concurrent use and no-ops on nil.
type CounterVec family[Counter]

func (v *CounterVec) fam() *family[Counter] { return (*family[Counter])(v) }

// Label returns the vec's label key ("" on nil).
func (v *CounterVec) Label() string { return v.fam().labelKey() }

// WithLabel returns the child counter for the label value, creating it on
// first use. Past the cardinality cap, unseen values share the
// OverflowLabel child. Returns nil on a nil vec.
func (v *CounterVec) WithLabel(value string) *Counter { return v.fam().with(value) }

// Add is shorthand for WithLabel(value).Add(n).
func (v *CounterVec) Add(value string, n int64) { v.WithLabel(value).Add(n) }

// Values returns a snapshot of every child's count keyed by label value.
func (v *CounterVec) Values() map[string]int64 { return familyValues(v.fam(), counterValue) }

// HistogramVec is a family of Histograms keyed by one label, with the same
// cardinality cap and overflow contract as CounterVec.
type HistogramVec family[Histogram]

func (v *HistogramVec) fam() *family[Histogram] { return (*family[Histogram])(v) }

// Label returns the vec's label key ("" on nil).
func (v *HistogramVec) Label() string { return v.fam().labelKey() }

// WithLabel returns the child histogram for the label value, creating it
// on first use; past the cap, unseen values share the OverflowLabel child.
// Returns nil on a nil vec.
func (v *HistogramVec) WithLabel(value string) *Histogram { return v.fam().with(value) }

// Observe is shorthand for WithLabel(value).Observe(x).
func (v *HistogramVec) Observe(value string, x float64) { v.WithLabel(value).Observe(x) }

// Snapshots returns a snapshot of every non-empty child keyed by label
// value.
func (v *HistogramVec) Snapshots() map[string]HistogramSnapshot {
	return familyValues(v.fam(), histogramSnapshot)
}

// CounterVec returns (creating on first use, with DefaultVecCap) the named
// counter family; nil on a nil trace. The label key is fixed at first use.
func (t *Trace) CounterVec(name, label string) *CounterVec {
	if t == nil {
		return nil
	}
	return (*CounterVec)(loadFamily[Counter](&t.counterVecs, name, label))
}

// HistogramVec returns (creating on first use, with DefaultVecCap) the
// named histogram family; nil on a nil trace.
func (t *Trace) HistogramVec(name, label string) *HistogramVec {
	if t == nil {
		return nil
	}
	return (*HistogramVec)(loadFamily[Histogram](&t.histogramVecs, name, label))
}

// CounterVecs snapshots every counter family: name -> (label key, values).
func (t *Trace) CounterVecs() map[string]VecSnapshot[int64] {
	if t == nil {
		return nil
	}
	return familySnapshots(&t.counterVecs, counterValue)
}

// HistogramVecs snapshots every histogram family: name -> (label key,
// per-value snapshots). Empty children are omitted.
func (t *Trace) HistogramVecs() map[string]VecSnapshot[HistogramSnapshot] {
	if t == nil {
		return nil
	}
	return familySnapshots(&t.histogramVecs, histogramSnapshot)
}

// VecSnapshot is the serializable state of one labeled metric family.
type VecSnapshot[V any] struct {
	Label  string       `json:"label"`
	Values map[string]V `json:"values"`
}
