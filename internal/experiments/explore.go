package experiments

import (
	"fmt"
	"io"
	"sync"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/circuits"
	"fpgaflow/internal/core"
	"fpgaflow/internal/logic"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/power"
	"fpgaflow/internal/techmap"
	"fpgaflow/internal/vhdl"
)

// explorationClock is the common clock for energy comparisons across
// architecture points (comparing at each point's own fmax would conflate
// speed with energy).
const explorationClock = 100e6

// SweepPoint is one architecture point of an exploration.
type SweepPoint struct {
	Param        int
	PowerMW      float64
	AreaUnits    float64
	CriticalNS   float64
	LUTs, CLBs   int
	ChannelWidth int
	Failures     int
}

// runSuiteAt runs the benchmark suite through the flow on the given
// architecture (each design on its own goroutine; results reduced in
// deterministic benchmark order) and averages the metrics. Each flow
// reports into a trace of its own — a trace's spans must not be opened
// concurrently — and the runs' metrics are folded into tr in benchmark
// order, so counters and histograms aggregate while spans stay per run.
func runSuiteAt(a *arch.Arch, suite []circuits.Benchmark, seed int64, tr *obs.Trace) (SweepPoint, error) {
	type one struct {
		res *core.Result
		err error
		tr  *obs.Trace
	}
	results := make([]one, len(suite))
	var wg sync.WaitGroup
	for i, b := range suite {
		wg.Add(1)
		go func(i int, b circuits.Benchmark) {
			defer wg.Done()
			var run *obs.Trace
			if tr != nil {
				run = obs.New(b.Name)
			}
			res, err := core.RunVHDL(b.VHDL, core.Options{
				Arch: a, AutoSizeGrid: true, Seed: seed, SkipVerify: true,
				ClockHz: explorationClock, ActivityCycles: 200, Obs: run,
			})
			results[i] = one{res, err, run}
		}(i, b)
	}
	wg.Wait()
	var pt SweepPoint
	ran := 0
	for _, r := range results {
		tr.MergeFrom(r.tr)
		if r.err != nil {
			pt.Failures++
			continue
		}
		res := r.res
		pt.PowerMW += res.Power.Total * 1e3
		pt.AreaUnits += power.FabricAreaMinWidthUnits(res.Arch)
		pt.CriticalNS += res.Timing.CriticalPath * 1e9
		pt.LUTs += res.Metrics.LUTs
		pt.CLBs += res.Metrics.CLBs
		pt.ChannelWidth += res.Metrics.ChannelWidth
		ran++
	}
	if ran == 0 {
		return pt, fmt.Errorf("experiments: every benchmark failed")
	}
	pt.PowerMW /= float64(ran)
	pt.AreaUnits /= float64(ran)
	pt.CriticalNS /= float64(ran)
	pt.LUTs /= ran
	pt.CLBs /= ran
	pt.ChannelWidth /= ran
	return pt, nil
}

// ExploreLUTSize reproduces the §3.1 LUT-size exploration: K in [2,7] with
// I = (K/2)(N+1), measuring average power at a fixed clock. The paper (via
// [24]) finds K=4 minimizes energy. The flows' metrics report to tr (nil
// disables reporting).
func ExploreLUTSize(w io.Writer, suite []circuits.Benchmark, seed int64, tr *obs.Trace) ([]SweepPoint, error) {
	fmt.Fprintf(w, "LUT size exploration (N=5, I=(K/2)(N+1), %d benchmarks, %.0f MHz)\n",
		len(suite), explorationClock/1e6)
	var out []SweepPoint
	for k := 2; k <= 7; k++ {
		a := arch.Paper()
		a.CLB.K = k
		a.CLB.I = pack.InputsForUtilization(k, a.CLB.N)
		pt, err := runSuiteAt(a, suite, seed, tr)
		if err != nil {
			return nil, fmt.Errorf("K=%d: %w", k, err)
		}
		pt.Param = k
		out = append(out, pt)
		fmt.Fprintf(w, "  K=%d: %7.3f mW  %9.0f area  %6.2f ns  %4d LUTs  %3d CLBs\n",
			k, pt.PowerMW, pt.AreaUnits, pt.CriticalNS, pt.LUTs, pt.CLBs)
	}
	fmt.Fprintf(w, "-> minimum power at K=%d (paper: K=4)\n", argminPower(out))
	return out, nil
}

// ExploreClusterSize reproduces the §3.1 cluster-size exploration: N in
// [1,10]; the paper finds N=5 minimizes energy. The flows' metrics report
// to tr (nil disables reporting).
func ExploreClusterSize(w io.Writer, suite []circuits.Benchmark, seed int64, tr *obs.Trace) ([]SweepPoint, error) {
	fmt.Fprintf(w, "Cluster size exploration (K=4, I=(K/2)(N+1), %d benchmarks, %.0f MHz)\n",
		len(suite), explorationClock/1e6)
	var out []SweepPoint
	for n := 1; n <= 10; n++ {
		a := arch.Paper()
		a.CLB.N = n
		a.CLB.I = pack.InputsForUtilization(a.CLB.K, n)
		pt, err := runSuiteAt(a, suite, seed, tr)
		if err != nil {
			return nil, fmt.Errorf("N=%d: %w", n, err)
		}
		pt.Param = n
		out = append(out, pt)
		fmt.Fprintf(w, "  N=%2d: %7.3f mW  %9.0f area  %6.2f ns  %4d LUTs  %3d CLBs\n",
			n, pt.PowerMW, pt.AreaUnits, pt.CriticalNS, pt.LUTs, pt.CLBs)
	}
	fmt.Fprintf(w, "-> minimum power at N=%d (paper: N=5)\n", argminPower(out))
	return out, nil
}

func argminPower(pts []SweepPoint) int {
	best := pts[0]
	for _, p := range pts[1:] {
		if p.PowerMW < best.PowerMW {
			best = p
		}
	}
	return best.Param
}

// UtilizationPoint is one I value of the cluster-input exploration.
type UtilizationPoint struct {
	I           int
	Utilization float64
}

// ExploreClusterInputs reproduces Eq. (1) of §3.1: BLE utilization versus
// the number of cluster inputs I at K=4, N=5. The paper's I=(K/2)(N+1)=12
// achieves ~98% utilization.
func ExploreClusterInputs(w io.Writer, suite []circuits.Benchmark) ([]UtilizationPoint, error) {
	fmt.Fprintf(w, "Cluster input exploration (K=4, N=5)\n")
	var out []UtilizationPoint
	for i := 4; i <= 20; i += 2 {
		totalUtil, runs := 0.0, 0
		for _, b := range suite {
			d, err := vhdl.Parse(b.VHDL)
			if err != nil {
				return nil, err
			}
			nl, err := vhdl.Elaborate(d, "")
			if err != nil {
				return nil, err
			}
			mapped, err := techmap.FlowMap(decomposed(nl), 4)
			if err != nil {
				return nil, err
			}
			pk, err := pack.Pack(mapped.Netlist, pack.Params{N: 5, K: 4, I: i})
			if err != nil {
				return nil, err
			}
			totalUtil += pk.Utilization()
			runs++
		}
		u := totalUtil / float64(runs)
		out = append(out, UtilizationPoint{I: i, Utilization: u})
		marker := ""
		if i == pack.InputsForUtilization(4, 5) {
			marker = "  <- I=(K/2)(N+1)"
		}
		fmt.Fprintf(w, "  I=%2d: %5.1f%% BLE utilization%s\n", i, 100*u, marker)
	}
	return out, nil
}

func decomposed(nl *netlist.Netlist) *netlist.Netlist {
	// Decompose fails only on malformed networks; the generated benchmarks
	// are well-formed by construction.
	if err := logic.Decompose(nl); err != nil {
		panic(err)
	}
	return nl
}

// FlowRow is one benchmark's end-to-end metrics (the per-design report the
// paper's GUI log shows; the paper itself prints no flow table).
type FlowRow struct {
	Metrics  core.Metrics
	Verified bool
}

// FullFlow runs the complete benchmark suite through the whole flow,
// producing the per-design metric table. The flows report to tr (nil
// disables reporting).
func FullFlow(w io.Writer, suite []circuits.Benchmark, seed int64, verify bool, tr *obs.Trace) ([]FlowRow, error) {
	fmt.Fprintf(w, "Full flow (VHDL -> bitstream) on %d benchmarks\n", len(suite))
	fmt.Fprintf(w, "  %-12s %6s %6s %6s %7s %4s %9s %9s %9s %10s %9s\n",
		"design", "gates", "LUTs", "depth", "CLBs", "W", "crit(ns)", "fmax(MHz)", "power(mW)", "bits", "verified")
	var rows []FlowRow
	for _, b := range suite {
		res, err := core.RunVHDL(b.VHDL, core.Options{
			Seed: seed, SkipVerify: !verify, ClockHz: explorationClock,
			MinChannelWidth: true, ActivityCycles: 200, Obs: tr,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		m := res.Metrics
		fmt.Fprintf(w, "  %-12s %6d %6d %6d %7d %4d %9.2f %9.1f %9.3f %10d %9v\n",
			m.Name, m.SourceGates, m.LUTs, m.Depth, m.CLBs, m.ChannelWidth,
			m.CriticalPath*1e9, m.MaxClockMHz, m.PowerTotalMW, m.BitstreamBits, res.Verified)
		rows = append(rows, FlowRow{Metrics: m, Verified: res.Verified})
	}
	return rows, nil
}

// SegmentRow is one wire-length point of the flow-level segment exploration.
type SegmentRow struct {
	SegmentLength int
	MinW          int
	Wirelength    int
	CriticalNS    float64
	PowerMW       float64
}

// ExploreSegmentLength connects the Figs 8-10 conclusion to the flow: it
// runs the suite on fabrics with length-1/2/4 wire segments and reports
// minimum channel width, wirelength, delay and power. The flows report to
// tr (nil disables reporting).
func ExploreSegmentLength(w io.Writer, suite []circuits.Benchmark, seed int64, tr *obs.Trace) ([]SegmentRow, error) {
	fmt.Fprintf(w, "Segment length exploration (%d benchmarks, min channel width)\n", len(suite))
	var out []SegmentRow
	for _, seg := range []int{1, 2, 4} {
		var row SegmentRow
		row.SegmentLength = seg
		ran := 0
		for _, b := range suite {
			a := arch.Paper()
			a.Routing.SegmentLength = seg
			res, err := core.RunVHDL(b.VHDL, core.Options{
				Arch: a, AutoSizeGrid: true, Seed: seed, SkipVerify: true,
				ClockHz: explorationClock, MinChannelWidth: true, ActivityCycles: 200, Obs: tr,
			})
			if err != nil {
				return nil, fmt.Errorf("seg=%d %s: %w", seg, b.Name, err)
			}
			row.MinW += res.Metrics.ChannelWidth
			row.Wirelength += res.Metrics.WirelengthUsed
			row.CriticalNS += res.Timing.CriticalPath * 1e9
			row.PowerMW += res.Power.Total * 1e3
			ran++
		}
		row.MinW /= ran
		row.Wirelength /= ran
		row.CriticalNS /= float64(ran)
		row.PowerMW /= float64(ran)
		out = append(out, row)
		fmt.Fprintf(w, "  L=%d: avg min-W %2d, wirelength %4d, crit %6.2f ns, power %7.3f mW\n",
			seg, row.MinW, row.Wirelength, row.CriticalNS, row.PowerMW)
	}
	fmt.Fprintf(w, "-> the paper selects L=1 for energy (shortest switched wires)\n")
	return out, nil
}

// UtilizationSuite returns larger circuits for the Eq. (1) experiment (the
// paper's ~98%% utilization figure needs designs with many BLEs so the last
// partially-filled cluster is amortized).
func UtilizationSuite() []circuits.Benchmark {
	return []circuits.Benchmark{
		circuits.RandomLogic(16, 150, 11),
		circuits.ArrayMultiplier(6),
		circuits.RippleAdder(24),
	}
}

// BaselineArch is a conventional-FPGA reference point: single-edge
// flip-flops, no clock gating (the architecture the paper's platform is
// designed to beat on energy).
func BaselineArch() *arch.Arch {
	a := arch.Paper()
	a.Name = "baseline-setff"
	a.CLB.DoubleEdgeFF = false
	a.CLB.GatedClock = false
	return a
}

// HeadlineRow compares the paper architecture against the baseline on one
// benchmark.
type HeadlineRow struct {
	Name                  string
	PaperMW, BaseMW       float64
	ClockPaper, ClockBase float64
}

// PaperVsBaseline runs the suite on the paper's low-energy platform and on
// the conventional baseline at the same data rate, reporting the energy
// advantage the paper's architecture decisions (DETFF + clock gating) buy.
// The flows report to tr (nil disables reporting).
func PaperVsBaseline(w io.Writer, suite []circuits.Benchmark, seed int64, tr *obs.Trace) ([]HeadlineRow, error) {
	fmt.Fprintf(w, "Paper platform vs conventional baseline (%.0f MHz data rate)\n", explorationClock/1e6)
	fmt.Fprintf(w, "  %-12s %12s %12s %8s %14s %14s\n",
		"design", "paper(mW)", "base(mW)", "saving", "clk-paper(mW)", "clk-base(mW)")
	var rows []HeadlineRow
	totP, totB := 0.0, 0.0
	for _, b := range suite {
		run := func(a *arch.Arch) (*core.Result, error) {
			return core.RunVHDL(b.VHDL, core.Options{
				Arch: a, AutoSizeGrid: true, Seed: seed, SkipVerify: true,
				ClockHz: explorationClock, ActivityCycles: 200, Obs: tr,
			})
		}
		rp, err := run(arch.Paper())
		if err != nil {
			return nil, fmt.Errorf("%s (paper): %w", b.Name, err)
		}
		rb, err := run(BaselineArch())
		if err != nil {
			return nil, fmt.Errorf("%s (baseline): %w", b.Name, err)
		}
		row := HeadlineRow{
			Name: b.Name, PaperMW: rp.Power.Total * 1e3, BaseMW: rb.Power.Total * 1e3,
			ClockPaper: rp.Power.DynamicClock * 1e3, ClockBase: rb.Power.DynamicClock * 1e3,
		}
		rows = append(rows, row)
		totP += row.PaperMW
		totB += row.BaseMW
		fmt.Fprintf(w, "  %-12s %12.4f %12.4f %7.1f%% %14.4f %14.4f\n",
			row.Name, row.PaperMW, row.BaseMW, 100*(row.BaseMW-row.PaperMW)/row.BaseMW,
			row.ClockPaper, row.ClockBase)
	}
	fmt.Fprintf(w, "-> overall: paper platform uses %.1f%% less power than the SETFF/ungated baseline\n",
		100*(totB-totP)/totB)
	return rows, nil
}
