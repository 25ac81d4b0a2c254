package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"fpgaflow/internal/obs/events"
)

// SpanRecord is the serialized form of one span; span end events carry
// the same record.
type SpanRecord = events.SpanRecord

// Summary is the machine-readable single-run report (metrics.json schema).
type Summary struct {
	Name string `json:"name"`
	// TraceID correlates this summary with the farm job that produced it
	// (empty for plain CLI runs).
	TraceID string `json:"trace_id,omitempty"`
	// Build is the provenance header: toolchain and VCS stamp of the
	// binary that produced the numbers (see ReadBuild).
	Build         *BuildInfo                                `json:"build,omitempty"`
	WallNS        int64                                     `json:"wall_ns"`
	CPUNS         int64                                     `json:"cpu_ns,omitempty"`
	Spans         []SpanRecord                              `json:"spans"`
	Counters      map[string]int64                          `json:"counters"`
	Gauges        map[string]float64                        `json:"gauges"`
	Histograms    map[string]HistogramSnapshot              `json:"histograms,omitempty"`
	CounterVecs   map[string]VecSnapshot[int64]             `json:"counter_vecs,omitempty"`
	HistogramVecs map[string]VecSnapshot[HistogramSnapshot] `json:"histogram_vecs,omitempty"`
}

func (s *Span) record() SpanRecord {
	return SpanRecord{
		Name:       s.Name,
		Path:       s.Path,
		Depth:      s.Depth,
		Detail:     s.Detail,
		StartNS:    s.startOff.Nanoseconds(),
		WallNS:     s.Wall.Nanoseconds(),
		CPUNS:      s.CPU.Nanoseconds(),
		AllocBytes: s.AllocBytes,
		Mallocs:    s.Mallocs,
	}
}

// Summary snapshots the trace into its serializable form.
func (t *Trace) Summary() *Summary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]SpanRecord, len(t.spans))
	for i, s := range t.spans {
		spans[i] = s.record()
	}
	name := t.name
	traceID := t.traceID
	start := t.start
	cpu0 := t.cpu0
	t.mu.Unlock()
	build := ReadBuild()
	sum := &Summary{
		Name:     name,
		TraceID:  traceID,
		Build:    &build,
		WallNS:   time.Since(start).Nanoseconds(),
		Spans:    spans,
		Counters: t.Counters(),
		Gauges:   t.Gauges(),
	}
	if h := t.Histograms(); len(h) > 0 {
		sum.Histograms = h
	}
	if cv := t.CounterVecs(); len(cv) > 0 {
		sum.CounterVecs = cv
	}
	if hv := t.HistogramVecs(); len(hv) > 0 {
		sum.HistogramVecs = hv
	}
	if cpu := processCPUTime(); cpu > cpu0 {
		sum.CPUNS = (cpu - cpu0).Nanoseconds()
	}
	return sum
}

// WriteJSON writes the metrics.json summary document.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Summary())
}

// WriteText renders the human-readable report: the span tree with wall/CPU
// time and allocations, followed by sorted counters and gauges.
func (t *Trace) WriteText(w io.Writer) error {
	if t == nil {
		return nil
	}
	sum := t.Summary()
	fmt.Fprintf(w, "trace %s: wall %.2fms cpu %.2fms\n",
		sum.Name, float64(sum.WallNS)/1e6, float64(sum.CPUNS)/1e6)
	for _, s := range sum.Spans {
		indent := strings.Repeat("  ", s.Depth+1)
		fmt.Fprintf(w, "%s%-*s %9.2fms", indent, 28-2*s.Depth, s.Name, float64(s.WallNS)/1e6)
		if s.CPUNS > 0 {
			fmt.Fprintf(w, " cpu %8.2fms", float64(s.CPUNS)/1e6)
		}
		if s.AllocBytes > 0 {
			fmt.Fprintf(w, " alloc %8s", byteSize(s.AllocBytes))
		}
		if s.Detail != "" {
			fmt.Fprintf(w, "  %s", s.Detail)
		}
		fmt.Fprintln(w)
	}
	if len(sum.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, k := range sortedKeys(sum.Counters) {
			fmt.Fprintf(w, "  %-32s %d\n", k, sum.Counters[k])
		}
	}
	if len(sum.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, k := range sortedKeys(sum.Gauges) {
			fmt.Fprintf(w, "  %-32s %g\n", k, sum.Gauges[k])
		}
	}
	if len(sum.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		for _, k := range sortedKeys(sum.Histograms) {
			h := sum.Histograms[k]
			fmt.Fprintf(w, "  %-32s n=%d sum=%.4gs p50=%.4gs p99=%.4gs\n",
				k, h.Count, h.Sum, h.Quantile(0.5), h.Quantile(0.99))
		}
	}
	return nil
}

func byteSize(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// ParseSummary decodes a metrics.json document (round-trip of WriteJSON).
func ParseSummary(data []byte) (*Summary, error) {
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("obs: bad metrics JSON: %w", err)
	}
	return &s, nil
}
