// Command vpr is the placement-and-routing stage: it packs, places and
// routes a K-LUT BLIF netlist onto the architecture and reports the result.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/check"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
	"fpgaflow/internal/timing"
)

func main() {
	archFile := flag.String("arch", "", "DUTYS architecture file (default: paper architecture)")
	seed := flag.Int64("seed", 1, "placement seed")
	effort := flag.Float64("effort", 1, "annealing effort (VPR inner_num)")
	minW := flag.Bool("min-w", false, "binary search minimum channel width")
	jobs := flag.Int("j", 0, "placement and routing workers (0 = GOMAXPROCS, 1 = serial); result is identical for every value")
	flag.IntVar(jobs, "parallel", 0, "alias for -j")
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine)
	showVersion := obs.VersionFlag(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vpr [-arch file] [-seed S] [-min-w] [file.blif]\nPlaces and routes a mapped netlist.\n")
	}
	flag.Parse()
	if *showVersion {
		obs.PrintVersion(os.Stdout, "vpr")
		return
	}
	src, err := readInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	tr, finishObs := obsFlags.Start("vpr")
	a := arch.Paper()
	if *archFile != "" {
		b, err := os.ReadFile(*archFile)
		if err != nil {
			fatal(err)
		}
		if a, err = arch.Parse(string(b)); err != nil {
			fatal(err)
		}
	}
	nl, err := netlist.ParseBLIF(src)
	if err != nil {
		fatal(err)
	}
	pk, err := pack.Pack(nl, pack.Params{N: a.CLB.N, K: a.CLB.K, I: a.CLB.I})
	if err != nil {
		fatal(err)
	}
	pk.Record(tr)
	runChecks(tr, check.StagePack, &check.Artifacts{Packing: pk})
	p, err := place.NewProblem(a, pk)
	if err != nil {
		fatal(err)
	}
	p.AutoSize()
	pl, err := place.Place(p, place.Options{Seed: *seed, InnerNum: *effort, Obs: tr, Workers: *jobs})
	if err != nil {
		fatal(err)
	}
	runChecks(tr, check.StagePlace, &check.Artifacts{Problem: p, Placement: pl})
	fmt.Printf("placed %d blocks on %dx%d grid, bb cost %.2f\n", len(p.Blocks), a.Cols, a.Rows, pl.Cost)
	var r *route.Result
	ropts := route.Options{Obs: tr, Workers: *jobs}
	if *minW {
		ropts.Cache = rrgraph.NewCache()
		w, rr, err := route.MinChannelWidth(p, pl, 1, a.Routing.ChannelWidth, ropts)
		if err != nil {
			fatal(err)
		}
		r = rr
		fmt.Printf("minimum channel width: %d\n", w)
	} else {
		g, err := rrgraph.Build(a)
		if err != nil {
			fatal(err)
		}
		if r, err = route.Route(p, pl, g, ropts); err != nil {
			fatal(err)
		}
		if !r.Success {
			fatal(fmt.Errorf("unroutable at W=%d (%d nodes overused)", a.Routing.ChannelWidth, r.Overused))
		}
	}
	runChecks(tr, check.StageRoute, &check.Artifacts{Graph: r.Graph, Routing: r, Problem: p, Placement: pl})
	an, err := timing.Analyze(pk, p, pl, r)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("routed in %d iterations, %d wire segments used\n", r.Iterations, r.WirelengthUsed())
	fmt.Printf("critical path %.3f ns (%.1f MHz clock, %.1f Mb/s DETFF data rate) through %s\n",
		an.CriticalPath*1e9, an.MaxClockHz/1e6, an.MaxDataRateHz/1e6, an.CriticalSignal)
	if len(an.CriticalNodes) > 0 {
		fmt.Print("critical path trace:")
		for _, n := range an.CriticalNodes {
			fmt.Printf(" %s", n)
		}
		fmt.Println()
	}
	tr.SetGauge("timing.critical_path_ns", an.CriticalPath*1e9)
	if err := finishObs(); err != nil {
		fatal(err)
	}
}

// runChecks runs one stage's boundary rules (the flow's legality check),
// records their counts on tr and exits on an error-severity diagnostic.
func runChecks(tr *obs.Trace, stage check.Stage, arts *check.Artifacts) {
	rep := check.RunStage(stage, arts)
	rep.Record(tr)
	if err := rep.Err(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func readInput(path string) (string, error) {
	if path == "" || path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
