package fpgaflow

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for the index). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark wraps the corresponding experiment; -v output of the
// companion TestReproduce* functions prints the paper-style rows.

import (
	"fmt"
	"io"
	"os"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/circuit"
	"fpgaflow/internal/circuits"
	"fpgaflow/internal/experiments"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
)

// sink prevents dead-code elimination.
var sink interface{}

// BenchmarkTable1DETFF regenerates Table 1: DETFF energy/delay/EDP.
func BenchmarkTable1DETFF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := circuit.Table1(arch.STM018())
		if err != nil {
			b.Fatal(err)
		}
		sink = rows
	}
}

// BenchmarkTable2GatedClockBLE regenerates Table 2: BLE-level clock gating.
func BenchmarkTable2GatedClockBLE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := circuit.Table2(arch.STM018())
		if err != nil {
			b.Fatal(err)
		}
		sink = rows
	}
}

// BenchmarkTable3GatedClockCLB regenerates Table 3: CLB-level clock gating.
func BenchmarkTable3GatedClockCLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := circuit.Table3(arch.STM018(), 5)
		if err != nil {
			b.Fatal(err)
		}
		sink = rows
	}
}

// BenchmarkFig8PassTransistorSweep regenerates Fig 8 (min width, min
// spacing): EDA vs switch width for wire lengths 1/2/4/8.
func BenchmarkFig8PassTransistorSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = circuit.Fig8(arch.STM018())
	}
}

// BenchmarkFig9PassTransistorSweep regenerates Fig 9 (min width, double
// spacing).
func BenchmarkFig9PassTransistorSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = circuit.Fig9(arch.STM018())
	}
}

// BenchmarkFig10PassTransistorSweep regenerates Fig 10 (double width,
// double spacing).
func BenchmarkFig10PassTransistorSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = circuit.Fig10(arch.STM018())
	}
}

// BenchmarkTriStateBufferSweep regenerates the §3.3.2 tri-state buffer
// exploration.
func BenchmarkTriStateBufferSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = circuit.TriStateSweep(arch.STM018(), circuit.MinWidthDblSpacing(), 1)
	}
}

// BenchmarkExploreLUTSize regenerates the §3.1 K exploration (K=4 optimum).
func BenchmarkExploreLUTSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.ExploreLUTSize(io.Discard, circuits.SmallSuite(), 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		sink = pts
	}
}

// BenchmarkExploreClusterSize regenerates the §3.1 N exploration (N=5
// optimum).
func BenchmarkExploreClusterSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.ExploreClusterSize(io.Discard, circuits.SmallSuite(), 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		sink = pts
	}
}

// BenchmarkExploreClusterInputs regenerates the Eq. (1) utilization sweep.
func BenchmarkExploreClusterInputs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.ExploreClusterInputs(io.Discard, circuits.SmallSuite())
		if err != nil {
			b.Fatal(err)
		}
		sink = pts
	}
}

// BenchmarkFullFlow runs the complete VHDL-to-bitstream flow per benchmark
// circuit (the paper's §4 flow; verification off to time the tools alone).
func BenchmarkFullFlow(b *testing.B) {
	for _, bench := range circuits.SmallSuite() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(bench.VHDL, Options{Seed: 1, SkipVerify: true, ClockHz: 100e6})
				if err != nil {
					b.Fatal(err)
				}
				sink = res
			}
		})
	}
}

// BenchmarkMapperAblation compares FlowMap against the greedy baseline
// through the full flow (design-choice ablation from DESIGN.md).
func BenchmarkMapperAblation(b *testing.B) {
	src := circuits.RandomLogic(10, 40, 2).VHDL
	b.Run("flowmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := Run(src, Options{Seed: 1, SkipVerify: true, Mapper: MapFlowMap, ClockHz: 100e6})
			if err != nil {
				b.Fatal(err)
			}
			sink = res
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := Run(src, Options{Seed: 1, SkipVerify: true, Mapper: MapGreedy, ClockHz: 100e6})
			if err != nil {
				b.Fatal(err)
			}
			sink = res
		}
	})
}

// BenchmarkGatedClockAblation measures the flow-level power with and
// without the gated clock (the architecture feature Tables 2-3 motivate).
func BenchmarkGatedClockAblation(b *testing.B) {
	src := circuits.Counter(8).VHDL
	run := func(b *testing.B, gated bool) {
		a := arch.Paper()
		a.CLB.GatedClock = gated
		for i := 0; i < b.N; i++ {
			res, err := Run(src, Options{Seed: 1, SkipVerify: true, Arch: a, AutoSizeGrid: true, ClockHz: 100e6})
			if err != nil {
				b.Fatal(err)
			}
			sink = res
		}
	}
	b.Run("gated", func(b *testing.B) { run(b, true) })
	b.Run("ungated", func(b *testing.B) { run(b, false) })
}

// placedRand64 packs and places the largest committed example
// (examples/netlists/rand64.blif) for the routing benchmarks.
func placedRand64(b *testing.B) (*place.Problem, *place.Placement) {
	b.Helper()
	src, err := os.ReadFile("examples/netlists/rand64.blif")
	if err != nil {
		b.Fatal(err)
	}
	nl, err := netlist.ParseBLIF(string(src))
	if err != nil {
		b.Fatal(err)
	}
	a := arch.Paper()
	pk, err := pack.Pack(nl, pack.Params{N: a.CLB.N, K: a.CLB.K, I: a.CLB.I})
	if err != nil {
		b.Fatal(err)
	}
	p, err := place.NewProblem(a, pk)
	if err != nil {
		b.Fatal(err)
	}
	p.AutoSize()
	pl, err := place.Place(p, place.Options{Seed: 1, InnerNum: 1})
	if err != nil {
		b.Fatal(err)
	}
	return p, pl
}

// BenchmarkRoute measures the parallel PathFinder on the largest committed
// example at several worker counts. The routing result is identical across
// the sub-benchmarks (the determinism suite asserts it); only wall time may
// differ, which is the number this benchmark records — the j1/j8 ratio is
// the routing speedup the parallel search phase buys on this machine.
func BenchmarkRoute(b *testing.B) {
	p, pl := placedRand64(b)
	g, err := rrgraph.Build(p.Arch)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := route.Route(p, pl, g, route.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if !r.Success {
					b.Fatalf("unroutable: %d overused", r.Overused)
				}
				sink = r
			}
		})
	}
}

// BenchmarkAnneal measures the parallel annealer on the largest committed
// example at several worker counts. The placement is bit-identical across
// the sub-benchmarks (the determinism suite asserts it); the j1/j8 ratio
// is the wall-time speedup the snapshot-evaluate/ordered-commit batching
// buys on this machine.
func BenchmarkAnneal(b *testing.B) {
	p, _ := placedRand64(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pl, err := place.Place(p, place.Options{Seed: 1, InnerNum: 1, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				sink = pl
			}
		})
	}
}

// BenchmarkRRGraphBuild measures routing-resource graph construction for
// the rand64 fabric — the cost the RR-graph cache exists to avoid.
func BenchmarkRRGraphBuild(b *testing.B) {
	p, _ := placedRand64(b)
	for i := 0; i < b.N; i++ {
		g, err := rrgraph.Build(p.Arch)
		if err != nil {
			b.Fatal(err)
		}
		sink = g
	}
}

// BenchmarkRRGraphCacheGet measures a cache hit (clone of the cached
// pristine graph), the steady-state cost of every width trial after the
// first in a min-channel-width search or hardened retry.
func BenchmarkRRGraphCacheGet(b *testing.B) {
	p, _ := placedRand64(b)
	cache := rrgraph.NewCache(0)
	if _, err := cache.Get(p.Arch, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := cache.Get(p.Arch, nil)
		if err != nil {
			b.Fatal(err)
		}
		sink = g
	}
}

// TestReproduceAll prints every paper table/figure in one pass; run with
// go test -run TestReproduceAll -v .
func TestReproduceAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction pass")
	}
	w := os.Stdout
	if _, err := experiments.Table1(w); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Table2(w); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Table3(w); err != nil {
		t.Fatal(err)
	}
	experiments.Fig8(w)
	experiments.Fig9(w)
	experiments.Fig10(w)
	experiments.TriState(w)
	if _, err := experiments.ExploreClusterInputs(w, circuits.SmallSuite()); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.PaperVsBaseline(w, circuits.SmallSuite(), 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.FullFlow(w, circuits.SmallSuite(), 1, true, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPaperVsBaseline regenerates the headline platform comparison.
func BenchmarkPaperVsBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PaperVsBaseline(io.Discard, circuits.SmallSuite(), 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		sink = rows
	}
}

// TestRunFacade exercises the public Run entry point on both input kinds.
func TestRunFacade(t *testing.T) {
	res, err := Run(circuits.ParityTree(8).VHDL, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("VHDL run not verified")
	}
	blif := ".model m\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n.end\n"
	res2, err := Run(blif, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Verified {
		t.Fatal("BLIF run not verified")
	}
}

// BenchmarkTimingDrivenAblation compares the balanced (wirelength-driven)
// flow with the timing profile (timing-driven placement and delay-driven
// routing) through the full flow.
func BenchmarkTimingDrivenAblation(b *testing.B) {
	src := circuits.RippleAdder(8).VHDL
	run := func(b *testing.B, prof Profile) {
		var critSum float64
		for i := 0; i < b.N; i++ {
			res, err := Run(src, Options{Seed: 1, SkipVerify: true, Profile: prof, ClockHz: 100e6})
			if err != nil {
				b.Fatal(err)
			}
			critSum += res.Metrics.CriticalPath
			sink = res
		}
		b.ReportMetric(critSum/float64(b.N)*1e9, "crit-ns")
	}
	b.Run("wirelength", func(b *testing.B) { run(b, ProfileBalanced) })
	b.Run("timing", func(b *testing.B) { run(b, ProfileTiming) })
}
