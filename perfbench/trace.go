package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"fpgaflow/internal/core"
	"fpgaflow/internal/obs"
)

// stageLayer maps each flow stage, as core.Options.StageStart names it,
// to the module that does its work.
var stageLayer = map[string]string{
	"VHDL Parser": "vhdl",
	"DIVINER":     "vhdl",
	"DRUID":       "edif",
	"E2FMT":       "edif",
	"SIS":         "logic",
	"LUT map":     "techmap",
	"T-VPack":     "pack",
	"DUTYS":       "arch",
	"VPR place":   "place",
	"VPR route":   "route",
	"Timing":      "timing",
	"PowerModel":  "power",
	"DAGGER":      "bitstream",
	"Verify":      "sim",
}

// layers lists every layer with per-compile time, CPU and allocation
// metrics. "netlist" is the time from the Run call to its first stage
// (BLIF lint and parse on the BLIF entry).
var layers = []string{"netlist", "vhdl", "edif", "logic", "techmap", "pack", "arch",
	"place", "route", "timing", "power", "bitstream", "sim"}

// span is one recorded interval. Spans nest by Parent (-1 for a root):
// job > compile > attempt > stage.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Name       string `json:"name"`
	Layer      string `json:"layer,omitempty"`
	StartNS    int64  `json:"start_ns"`
	WallNS     int64  `json:"wall_ns"`
	SelfNS     int64  `json:"self_ns"`
	CPUNS      int64  `json:"cpu_ns,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	GCCycles   uint32 `json:"gc_cycles,omitempty"`

	start usage
}

// compileRec is what the recorder keeps per compile besides its spans.
type compileRec struct {
	name     string
	span     int
	attempts []int // attempt span IDs
	counters map[string]int64
	res      *core.Result
}

// recorder builds the span tree of a traced run from the outside: a
// StageStart callback marks every stage entry, and the benchmark marks
// the call boundaries. A stage's span runs from its entry to the next
// stage's entry (or the call's return); a stage name seen twice in one
// compile starts a new attempt. Compile spans are recorded from one
// goroutine at a time; job spans may come from several.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []*span
	compiles []*compileRec
	unknown  map[string]bool

	// Open spans of the compile in progress.
	cur            *compileRec
	attempt, stage int
	seen           map[string]bool
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), unknown: map[string]bool{}}
}

func (r *recorder) open(parent int, name, layer string, u usage) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &span{ID: len(r.spans), Parent: parent, Name: name, Layer: layer,
		StartNS: u.wall.Sub(r.t0).Nanoseconds(), start: u}
	r.spans = append(r.spans, s)
	return s.ID
}

func (r *recorder) close(id int, u usage) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans[id]
	d := s.start.to(u)
	s.WallNS = d.wall.Nanoseconds()
	s.CPUNS = d.cpu.Nanoseconds()
	s.AllocBytes = d.alloc
	s.GCCycles = d.gc
}

// beginCompile opens a compile span (under parent, -1 for none), its
// first attempt and the pre-stage "netlist" span.
func (r *recorder) beginCompile(name string, parent int) {
	u := now()
	c := &compileRec{name: name, span: r.open(parent, "compile "+name, "", u)}
	r.cur = c
	r.compiles = append(r.compiles, c)
	r.openAttempt(u)
	r.stage = r.open(r.attempt, "call", "netlist", u)
}

func (r *recorder) openAttempt(u usage) {
	c := r.cur
	r.attempt = r.open(c.span, fmt.Sprintf("attempt %d", len(c.attempts)+1), "", u)
	c.attempts = append(c.attempts, r.attempt)
	r.seen = map[string]bool{}
}

// stageStart is the core.Options.StageStart callback.
func (r *recorder) stageStart(tool string) {
	u := now()
	r.close(r.stage, u)
	if r.seen[tool] {
		r.close(r.attempt, u)
		r.openAttempt(u)
	}
	r.seen[tool] = true
	layer, ok := stageLayer[tool]
	if !ok {
		r.unknown[tool] = true
	}
	r.stage = r.open(r.attempt, tool, layer, u)
}

// endCompile closes the open spans when the Run call has returned and
// keeps the counters the flow recorded on tr.
func (r *recorder) endCompile(tr *obs.Trace, res *core.Result) {
	u := now()
	r.close(r.stage, u)
	r.close(r.attempt, u)
	r.close(r.cur.span, u)
	r.cur.counters = tr.Counters()
	r.cur.res = res
	r.cur = nil
}

// check reports stages the layer map does not know.
func (r *recorder) check() error {
	if len(r.unknown) == 0 {
		return nil
	}
	var names []string
	for n := range r.unknown {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Errorf("stages without a layer: %s", strings.Join(names, ", "))
}

// selfTimes fills every span's self time: its wall time minus the time
// its children cover.
func (r *recorder) selfTimes() {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.WallNS
		}
	}
	for _, s := range r.spans {
		s.SelfNS = s.WallNS - child[s.ID]
	}
}

// layerMetrics derives the per-layer metrics, per compile, from the
// recorded spans and counters.
func (r *recorder) layerMetrics() map[string]metric {
	r.selfTimes()
	n := float64(len(r.compiles))
	m := map[string]metric{}
	per := func(name string, v float64, unit string) { m[name] = metric{v / n, unit} }
	ratio := func(name string, num, den float64) {
		v := 0.0
		if den > 0 {
			v = num / den
		}
		m[name] = metric{v, "fraction"}
	}

	self, cpu, alloc := map[string]int64{}, map[string]int64{}, map[string]uint64{}
	var gc uint32
	for _, s := range r.spans {
		if s.Layer != "" {
			self[s.Layer] += s.SelfNS
			cpu[s.Layer] += s.CPUNS
			alloc[s.Layer] += s.AllocBytes
		}
	}
	for _, l := range layers {
		per(l+".self_s", float64(self[l])/1e9, "s")
		per(l+".cpu_s", float64(cpu[l])/1e9, "s")
		per(l+".alloc_mb", float64(alloc[l])/1e6, "MB")
	}

	sum := func(name string) float64 {
		t := 0.0
		for _, c := range r.compiles {
			t += float64(c.counters[name])
		}
		return t
	}
	var luts, depth, bits, routed, attempts, redo, useful, total float64
	for _, c := range r.compiles {
		gc += r.spans[c.span].GCCycles
		if c.res != nil {
			luts += float64(c.res.Metrics.LUTs)
			depth += float64(c.res.Metrics.Depth)
			bits += float64(c.res.Metrics.BitstreamBits)
			if c.res.Routed != nil {
				routed += float64(len(c.res.Routed.Routes))
			}
		}
		attempts += float64(len(c.attempts))
		for i, id := range c.attempts {
			w := float64(r.spans[id].WallNS) / 1e9
			total += w
			if i < len(c.attempts)-1 {
				redo += w
			} else {
				useful += w
			}
		}
	}
	per("techmap.luts", luts, "LUT")
	per("techmap.depth", depth, "levels")
	per("route.heap_pops", sum("route.heap_pops"), "count")
	per("route.iterations", sum("route.iterations"), "count")
	per("route.nets_routed", sum("route.nets_routed"), "count")
	per("route.width_trials", sum("route.width_trials"), "count")
	ratio("route.useful_frac", routed, sum("route.nets_routed"))
	per("rrgraph.builds", sum("rrgraph.cache_misses"), "count")
	per("rrgraph.cache_hits", sum("rrgraph.cache_hits"), "count")
	per("core.attempts", attempts, "count")
	per("core.redo_s", redo, "s")
	ratio("core.useful_frac", useful, total)
	per("sim.transitions", sum("sim.transitions"), "count")
	per("bitstream.bits", bits, "bits")
	per("place.moves", sum("place.moves"), "count")
	ratio("place.accept_ratio", sum("place.accepted"), sum("place.moves"))
	per("place.temperature_steps", sum("place.temperature_steps"), "count")
	per("pack.clusters", sum("pack.clusters"), "count")
	per("check.rules_run", sum("check.rules_run"), "count")
	per("check.warnings", sum("check.warnings"), "count")
	per("runtime.gc_cycles", float64(gc), "count")
	m["runtime.max_rss_mb"] = metric{maxRSSMB(), "MB"}
	return m
}

// write stores the traced run's outputs: the span tree, the same spans as
// a Chrome/Perfetto trace, and the per-layer metrics.
func (r *recorder) write(cfg config, m map[string]metric) error {
	dir, err := outDir(cfg)
	if err != nil {
		return err
	}
	sum := &obs.Summary{Name: fmt.Sprintf("perfbench %s seed %d", cfg.workload, cfg.seed)}
	for _, s := range r.spans {
		path, depth := s.Name, 0
		for p := s.Parent; p >= 0; p = r.spans[p].Parent {
			path = r.spans[p].Name + "/" + path
			depth++
		}
		sum.Spans = append(sum.Spans, obs.SpanRecord{Name: s.Name, Path: path, Depth: depth,
			Detail: s.Layer, StartNS: s.StartNS, WallNS: s.WallNS, CPUNS: s.CPUNS, AllocBytes: s.AllocBytes})
	}
	var chrome strings.Builder
	if err := obs.WriteChromeTrace(&chrome, sum); err != nil {
		return err
	}
	spans, err := json.MarshalIndent(struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Spans    []*span `json:"spans"`
	}{cfg.workload, cfg.seed, r.spans}, "", " ")
	if err != nil {
		return err
	}
	metrics, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	for name, data := range map[string][]byte{
		"spans.json":        spans,
		"chrome_trace.json": []byte(chrome.String()),
		"layers.json":       metrics,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
