// Command benchgate is the CI quality gate on the flow's tier-1 metrics.
// It runs the small benchmark suite through the complete flow with the
// observability layer enabled, emits a machine-readable report (one obs
// summary per design), and compares the tier-1 QoR metrics — LUTs, CLBs,
// minimum channel width, bitstream bits, routed wirelength, routed-net
// count, PathFinder heap pops (routing-effort proxy), FlowMap augmenting
// paths (LUT-mapping effort) and Quine–McCluskey combines (SIS effort) —
// against a committed baseline, failing (exit 1) on drift beyond the
// tolerance.
//
// Usage:
//
//	benchgate -emit BENCH_ci.json -baseline bench_baseline.json -tol 0.05
//	benchgate -update bench_baseline.json     # refresh the baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"fpgaflow/internal/circuits"
	"fpgaflow/internal/core"
	"fpgaflow/internal/obs"
)

// DesignReport is the per-design gate record. The tier-1 metrics are
// pulled from the run's obs counters (the same numbers fpgaflow -metrics
// reports), so the gate exercises the observability layer end to end.
type DesignReport struct {
	Name          string `json:"name"`
	LUTs          int64  `json:"luts"`
	CLBs          int64  `json:"clbs"`
	ChannelWidth  int64  `json:"channel_width"`
	BitstreamBits int64  `json:"bitstream_bits"`
	// Routing QoR and effort: wire segments used, signal nets routed, and
	// PathFinder heap pops (a deterministic proxy for routing runtime that
	// is stable in CI where wall time is not).
	Wirelength    int64 `json:"wirelength"`
	RoutedNets    int64 `json:"routed_nets"`
	RouteHeapPops int64 `json:"route_heap_pops"`
	// TechmapAugmentations is FlowMap's augmenting-path count, the
	// LUT-mapping effort. It does not depend on search order, so it is
	// gated at the structural tolerance.
	TechmapAugmentations int64 `json:"techmap_augmentations"`
	// LogicQMCombines is SIS's Quine–McCluskey combine count, the exact
	// minimization effort, gated at the structural tolerance.
	LogicQMCombines int64 `json:"logic_qm_combines"`
	// Timing/power QoR: post-route critical path (picoseconds) and energy
	// per clock cycle (femtojoules), gated by -delay-tol and -energy-tol.
	// Integer units keep the JSON byte-stable run to run.
	CriticalPathPS int64 `json:"critical_path_ps"`
	EnergyFJ       int64 `json:"energy_fj"`
	// WallMS is the run's host-dependent wall time. It is reported but
	// never gated, and -update leaves it out of the baseline.
	WallMS float64 `json:"wall_ms,omitempty"`
	// Metrics is the full obs summary for the run (informational; not
	// compared by the gate).
	Metrics *obs.Summary `json:"metrics,omitempty"`
}

// Report is the whole gate document.
type Report struct {
	GoVersion string         `json:"go_version"`
	Seed      int64          `json:"seed"`
	Designs   []DesignReport `json:"designs"`
}

func main() {
	emit := flag.String("emit", "", "write the current run's report to this JSON file")
	baseline := flag.String("baseline", "", "compare against this committed baseline report")
	update := flag.String("update", "", "run the suite and (over)write this baseline file")
	tol := flag.Float64("tol", 0.05, "allowed relative drift per tier-1 metric")
	popsTol := flag.Float64("pops-tol", 0, "allowed relative drift for route_heap_pops (0 = 4×tol)")
	delayTol := flag.Float64("delay-tol", 0, "allowed relative drift for critical_path_ps (0 = tol)")
	energyTol := flag.Float64("energy-tol", 0, "allowed relative drift for energy_fj (0 = tol)")
	md := flag.String("md", "", "append a markdown comparison table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	seed := flag.Int64("seed", 1, "flow seed (must match the baseline's)")
	full := flag.Bool("summaries", false, "embed full obs summaries in the emitted report")
	showVersion := obs.VersionFlag(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		obs.PrintVersion(os.Stdout, "benchgate")
		return
	}

	rep, err := run(*seed, *full)
	if err != nil {
		fatal(err)
	}
	if *update != "" {
		for i := range rep.Designs {
			rep.Designs[i].WallMS = 0
		}
		if err := writeJSON(*update, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: wrote baseline %s (%d designs)\n", *update, len(rep.Designs))
		return
	}
	if *emit != "" {
		if err := writeJSON(*emit, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: wrote %s (%d designs)\n", *emit, len(rep.Designs))
	}
	if *baseline == "" {
		return
	}
	base, err := readReport(*baseline)
	if err != nil {
		fatal(err)
	}
	bd := bands{tol: *tol, pops: *popsTol, delay: *delayTol, energy: *energyTol}
	if bd.pops == 0 {
		bd.pops = 4 * *tol
	}
	if bd.delay == 0 {
		bd.delay = *tol
	}
	if bd.energy == 0 {
		bd.energy = *tol
	}
	cmpErr := compare(base, rep, bd)
	if *md != "" {
		if err := appendFile(*md, markdown(base, rep, bd, *baseline)); err != nil {
			fatal(err)
		}
	}
	if cmpErr != nil {
		fmt.Fprintln(os.Stderr, "benchgate: FAIL:", cmpErr)
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK — %d designs within %.0f%% of %s\n",
		len(rep.Designs), *tol*100, *baseline)
}

// bands holds the per-metric tolerance bands: tol for structural QoR,
// pops for routing effort, delay/energy for the timing and power gates.
type bands struct {
	tol, pops, delay, energy float64
}

// run pushes the small suite through the flow, one obs trace per design.
func run(seed int64, embedSummaries bool) (*Report, error) {
	rep := &Report{GoVersion: runtime.Version(), Seed: seed}
	for _, bench := range circuits.SmallSuite() {
		tr := obs.New(bench.Name)
		start := time.Now()
		_, err := core.RunVHDL(bench.VHDL, core.Options{
			Seed:            seed,
			SkipVerify:      true,
			MinChannelWidth: true,
			ClockHz:         100e6,
			Obs:             tr,
		})
		if err != nil {
			return nil, fmt.Errorf("benchgate: %s: %w", bench.Name, err)
		}
		counters := tr.Counters()
		gauges := tr.Gauges()
		d := DesignReport{
			Name:                 bench.Name,
			LUTs:                 counters["flow.luts"],
			CLBs:                 counters["flow.clbs"],
			ChannelWidth:         counters["flow.channel_width"],
			BitstreamBits:        counters["flow.bitstream_bits"],
			Wirelength:           counters["route.wirelength"],
			RoutedNets:           counters["flow.nets"],
			RouteHeapPops:        counters["route.heap_pops"],
			TechmapAugmentations: counters["techmap.augmentations"],
			LogicQMCombines:      counters["logic.qm_combines"],
			CriticalPathPS:       int64(math.Round(gauges["timing.critical_path_ns"] * 1e3)),
			EnergyFJ:             int64(math.Round(gauges["power.energy_pj"] * 1e3)),
			WallMS:               float64(time.Since(start).Microseconds()) / 1000,
		}
		if embedSummaries {
			d.Metrics = tr.Summary()
		}
		rep.Designs = append(rep.Designs, d)
	}
	return rep, nil
}

// compare checks every tier-1 metric of every design against the baseline.
// All drifts are reported, not just the first. Each metric family uses its
// band from bd: routing effort (heap pops) moves more than QoR under
// benign heuristic tweaks so it usually gets a looser tolerance, while
// delay and energy get their own bands so timing/power regressions gate
// independently of the structural metrics.
func compare(base, cur *Report, bd bands) error {
	baseBy := make(map[string]DesignReport, len(base.Designs))
	for _, d := range base.Designs {
		baseBy[d.Name] = d
	}
	var failures []string
	for _, d := range cur.Designs {
		b, ok := baseBy[d.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from baseline (refresh it)", d.Name))
			continue
		}
		delete(baseBy, d.Name)
		check := func(metric string, baseV, curV int64, band float64) {
			if drift := relDrift(baseV, curV); drift > band {
				failures = append(failures, fmt.Sprintf("%s: %s drifted %.1f%% (baseline %d, current %d)",
					d.Name, metric, drift*100, baseV, curV))
			}
		}
		check("luts", b.LUTs, d.LUTs, bd.tol)
		check("clbs", b.CLBs, d.CLBs, bd.tol)
		check("channel_width", b.ChannelWidth, d.ChannelWidth, bd.tol)
		check("bitstream_bits", b.BitstreamBits, d.BitstreamBits, bd.tol)
		check("wirelength", b.Wirelength, d.Wirelength, bd.tol)
		check("routed_nets", b.RoutedNets, d.RoutedNets, bd.tol)
		check("route_heap_pops", b.RouteHeapPops, d.RouteHeapPops, bd.pops)
		check("techmap_augmentations", b.TechmapAugmentations, d.TechmapAugmentations, bd.tol)
		check("logic_qm_combines", b.LogicQMCombines, d.LogicQMCombines, bd.tol)
		check("critical_path_ps", b.CriticalPathPS, d.CriticalPathPS, bd.delay)
		check("energy_fj", b.EnergyFJ, d.EnergyFJ, bd.energy)
	}
	for name := range baseBy {
		failures = append(failures, fmt.Sprintf("%s: in baseline but not in current run", name))
	}
	if len(failures) > 0 {
		msg := failures[0]
		for _, f := range failures[1:] {
			msg += "; " + f
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}

// markdown renders the baseline-vs-current comparison as a GitHub-flavored
// table, one row per design, cells showing "base → cur" where the metric
// moved. Written to $GITHUB_STEP_SUMMARY by CI so the drift is readable
// without downloading artifacts.
func markdown(base, cur *Report, bd bands, baselinePath string) string {
	baseBy := make(map[string]DesignReport, len(base.Designs))
	for _, d := range base.Designs {
		baseBy[d.Name] = d
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "### benchgate: tier-1 QoR vs `%s` (tol %.0f%%, heap-pop tol %.0f%%, delay tol %.0f%%, energy tol %.0f%%)\n\n",
		baselinePath, bd.tol*100, bd.pops*100, bd.delay*100, bd.energy*100)
	sb.WriteString("| design | LUTs | CLBs | W | bits | wirelength | nets | heap pops | augmentations | QM combines | crit ps | energy fJ | wall ms | status |\n")
	sb.WriteString("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, d := range cur.Designs {
		b, ok := baseBy[d.Name]
		if !ok {
			fmt.Fprintf(&sb, "| %s | – | – | – | – | – | – | – | – | – | – | – | %.1f | ❌ missing from baseline |\n",
				d.Name, d.WallMS)
			continue
		}
		delete(baseBy, d.Name)
		ok = true
		cell := func(baseV, curV int64, band float64) string {
			drift := relDrift(baseV, curV)
			if baseV == curV {
				return fmt.Sprintf("%d", curV)
			}
			s := fmt.Sprintf("%d → %d", baseV, curV)
			if drift > band {
				ok = false
				s += " ⚠️"
			}
			return s
		}
		row := fmt.Sprintf("| %s | %s | %s | %s | %s | %s | %s | %s | %s | %s | %s | %s | %.1f |",
			d.Name,
			cell(b.LUTs, d.LUTs, bd.tol),
			cell(b.CLBs, d.CLBs, bd.tol),
			cell(b.ChannelWidth, d.ChannelWidth, bd.tol),
			cell(b.BitstreamBits, d.BitstreamBits, bd.tol),
			cell(b.Wirelength, d.Wirelength, bd.tol),
			cell(b.RoutedNets, d.RoutedNets, bd.tol),
			cell(b.RouteHeapPops, d.RouteHeapPops, bd.pops),
			cell(b.TechmapAugmentations, d.TechmapAugmentations, bd.tol),
			cell(b.LogicQMCombines, d.LogicQMCombines, bd.tol),
			cell(b.CriticalPathPS, d.CriticalPathPS, bd.delay),
			cell(b.EnergyFJ, d.EnergyFJ, bd.energy),
			d.WallMS)
		if ok {
			row += " ✅ |"
		} else {
			row += " ❌ |"
		}
		sb.WriteString(row + "\n")
	}
	for name := range baseBy {
		fmt.Fprintf(&sb, "| %s | – | – | – | – | – | – | – | – | – | – | – | – | ❌ in baseline but not run |\n", name)
	}
	sb.WriteString("\n")
	return sb.String()
}

// appendFile appends to path (creating it if needed) — $GITHUB_STEP_SUMMARY
// may already hold earlier steps' sections, so no truncation.
func appendFile(path, s string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(s); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func relDrift(base, cur int64) float64 {
	if base == cur {
		return 0
	}
	if base == 0 {
		return math.Inf(1)
	}
	return math.Abs(float64(cur)-float64(base)) / math.Abs(float64(base))
}

func writeJSON(path string, v interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		_ = f.Close() // the encode error is the one worth reporting
		return err
	}
	return f.Close()
}

func readReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("benchgate: bad report %s: %w", path, err)
	}
	return &r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
