package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// bucketBounds is the fixed upper-bound ladder every Histogram uses: a
// 1/2.5/5 log ladder spanning 1ns to 5000s (in seconds). A fixed layout
// means any two histograms merge bucket-for-bucket and snapshots are
// deterministic across processes — no per-instance configuration to drift.
var bucketBounds = func() []float64 {
	b := make([]float64, 0, 3*13)
	for e := -9; e <= 3; e++ {
		p := math.Pow(10, float64(e))
		b = append(b, 1*p, 2.5*p, 5*p)
	}
	return b
}()

// numBuckets is len(bucketBounds) plus the +Inf overflow bucket.
var numBuckets = len(bucketBounds) + 1

// BucketBounds returns the shared upper-bound ladder (exclusive of +Inf).
// The slice is a copy; the layout itself is fixed.
func BucketBounds() []float64 {
	return append([]float64(nil), bucketBounds...)
}

// Histogram is a lock-free log-bucketed distribution metric. Observe is
// wait-free on the bucket counters (one atomic add each for bucket and
// count, a CAS loop for the sum) and allocation-free, so it is safe to call
// from hot loops. Like Counter and Gauge, every method is a no-op on nil.
type Histogram struct {
	buckets [40]atomic.Uint64 // numBuckets; last is the +Inf overflow
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample. NaN samples are dropped; negative samples
// land in the first bucket. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// Binary search for the first bound >= v; misses fall in overflow.
	lo, hi := 0, len(bucketBounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if bucketBounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// addSum adds v to the float64 sum with a CAS loop.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Merge adds every bucket, the count and the sum of o into h. Histograms
// share one fixed bucket layout, so the merge is exact. No-op when either
// side is nil.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
	if n := o.count.Load(); n > 0 {
		h.count.Add(n)
	}
	if s := o.Sum(); s != 0 {
		h.addSum(s)
	}
}

// Quantile estimates the q-quantile (0 <= q <= 1) by locating the bucket
// holding the rank and interpolating linearly inside it. Returns 0 on nil
// or an empty histogram; overflow-bucket ranks return the top finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	snap := h.Snapshot()
	return snap.Quantile(q)
}

// Snapshot captures a consistent-enough point-in-time copy of the
// histogram (bucket loads are individually atomic; concurrent observers
// may land between loads, which is the usual monitoring contract).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Counts = make([]uint64, numBuckets)
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.Sum()
	return s
}

// HistogramSnapshot is the serializable point-in-time state of a
// Histogram. Counts is per-bucket (not cumulative), aligned with
// BucketBounds plus a final +Inf overflow slot.
type HistogramSnapshot struct {
	Counts []uint64 `json:"counts"`
	Sum    float64  `json:"sum"`
	Count  uint64   `json:"count"`
}

// Quantile estimates the q-quantile of the snapshot (see
// Histogram.Quantile).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := uint64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the sample the quantile names.
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	cum := uint64(0)
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		if i >= len(bucketBounds) {
			// Overflow bucket: the best bounded answer is the top finite edge.
			return bucketBounds[len(bucketBounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = bucketBounds[i-1]
		}
		upper := bucketBounds[i]
		// Linear interpolation of the rank's position within this bucket.
		into := float64(rank-(cum-c)) / float64(c)
		return lower + (upper-lower)*into
	}
	return bucketBounds[len(bucketBounds)-1]
}

// Merge adds o into s bucket-for-bucket (both must carry the fixed
// layout; short slices are tolerated).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if len(s.Counts) < numBuckets {
		c := make([]uint64, numBuckets)
		copy(c, s.Counts)
		s.Counts = c
	}
	for i, c := range o.Counts {
		if i < len(s.Counts) {
			s.Counts[i] += c
		}
	}
	s.Sum += o.Sum
	s.Count += o.Count
}

// Timer measures one duration into a histogram without the caller touching
// the clock (flow-stage packages are barred from raw time.Now by the
// walltime analyzer; this helper keeps the time read inside obs).
type Timer struct {
	h     *Histogram
	start time.Time
}

// StartTimer begins timing one observation. On a nil histogram it returns
// an inert Timer and never reads the clock.
func (h *Histogram) StartTimer() Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// ObserveDuration records the elapsed time in seconds and returns it.
// Inert timers (nil histogram) return 0 without reading the clock.
func (t Timer) ObserveDuration() time.Duration {
	if t.h == nil {
		return 0
	}
	d := time.Since(t.start)
	t.h.Observe(d.Seconds())
	return d
}

// Histogram returns (creating on first use) the named histogram; nil on a
// nil trace.
func (t *Trace) Histogram(name string) *Histogram {
	if t == nil {
		return nil
	}
	if h, ok := t.histograms.Load(name); ok {
		return h.(*Histogram)
	}
	h, _ := t.histograms.LoadOrStore(name, &Histogram{})
	return h.(*Histogram)
}

// Observe is shorthand for Histogram(name).Observe(v).
func (t *Trace) Observe(name string, v float64) { t.Histogram(name).Observe(v) }

// Histograms returns a snapshot of every non-empty histogram.
func (t *Trace) Histograms() map[string]HistogramSnapshot {
	if t == nil {
		return nil
	}
	out := make(map[string]HistogramSnapshot)
	t.histograms.Range(func(k, v interface{}) bool {
		h := v.(*Histogram)
		if h.Count() > 0 {
			out[k.(string)] = h.Snapshot()
		}
		return true
	})
	return out
}
