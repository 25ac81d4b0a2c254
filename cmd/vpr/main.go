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
	jobs := flag.Int("j", 0, "routing workers (0 = GOMAXPROCS, 1 = serial); result is identical for every value")
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
	err = run(tr, src, config{archFile: *archFile, seed: *seed, effort: *effort, minW: *minW, jobs: *jobs})
	// The telemetry is written on failure too: an unroutable width is
	// exactly the run whose counters are worth reading.
	ferr := finishObs()
	if err != nil {
		fatal(err)
	}
	if ferr != nil {
		fatal(fmt.Errorf("observability: %w", ferr))
	}
}

// config carries the command-line options run reads.
type config struct {
	archFile string
	seed     int64
	effort   float64
	minW     bool
	jobs     int
}

// run packs, places and routes the BLIF source, printing the report and
// recording counters on tr. Each stage runs in a span named like
// fpgaflow's (T-VPack, VPR place, VPR route, Timing), so the trace shows
// the stages and every event names its stage through its path.
func run(tr *obs.Trace, src string, cfg config) error {
	a := arch.Paper()
	if cfg.archFile != "" {
		b, err := os.ReadFile(cfg.archFile)
		if err != nil {
			return err
		}
		if a, err = arch.Parse(string(b)); err != nil {
			return err
		}
	}
	nl, err := netlist.ParseBLIF(src)
	if err != nil {
		return err
	}
	var pk *pack.Packing
	err = stage(tr, "T-VPack", func() (err error) {
		if pk, err = pack.Pack(nl, pack.Params{N: a.CLB.N, K: a.CLB.K, I: a.CLB.I}); err != nil {
			return err
		}
		pk.Record(tr)
		return runChecks(tr, check.StagePack, &check.Artifacts{Packing: pk})
	})
	if err != nil {
		return err
	}
	var p *place.Problem
	var pl *place.Placement
	err = stage(tr, "VPR place", func() (err error) {
		if p, err = place.NewProblem(a, pk); err != nil {
			return err
		}
		p.AutoSize()
		if pl, err = place.Place(p, place.Options{Seed: cfg.seed, InnerNum: cfg.effort, Obs: tr}); err != nil {
			return err
		}
		return runChecks(tr, check.StagePlace, &check.Artifacts{Problem: p, Placement: pl})
	})
	if err != nil {
		return err
	}
	fmt.Printf("placed %d blocks on %dx%d grid, bb cost %.2f\n", len(p.Blocks), a.Cols, a.Rows, pl.Cost)
	var r *route.Result
	err = stage(tr, "VPR route", func() (err error) {
		ropts := route.Options{Obs: tr, Workers: cfg.jobs}
		if cfg.minW {
			ropts.Cache = rrgraph.NewCache()
			var w int
			if w, r, err = route.MinChannelWidth(p, pl, 1, a.Routing.ChannelWidth, ropts); err != nil {
				return err
			}
			fmt.Printf("minimum channel width: %d\n", w)
		} else {
			g, err := rrgraph.Build(a)
			if err != nil {
				return err
			}
			if r, err = route.Route(p, pl, g, ropts); err != nil {
				return err
			}
			if !r.Success {
				return fmt.Errorf("unroutable at W=%d (%d nodes overused)", a.Routing.ChannelWidth, r.Overused)
			}
		}
		return runChecks(tr, check.StageRoute, &check.Artifacts{Graph: r.Graph, Routing: r, Problem: p, Placement: pl})
	})
	if err != nil {
		return err
	}
	var an *timing.Analysis
	err = stage(tr, "Timing", func() (err error) {
		an, err = timing.Analyze(pk, p, pl, r)
		return err
	})
	if err != nil {
		return err
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
	return nil
}

// stage runs body inside a span named after the tool; a failing stage's
// span records the error, as fpgaflow's do.
func stage(tr *obs.Trace, name string, body func() error) error {
	sp := tr.Start(name)
	err := body()
	if err != nil {
		sp.SetDetail("err=%v", err)
	}
	sp.End()
	return err
}

// runChecks runs one stage's boundary rules (the flow's legality check),
// records their counts on tr and returns an error-severity diagnostic.
func runChecks(tr *obs.Trace, stage check.Stage, arts *check.Artifacts) error {
	rep := check.RunStage(stage, arts)
	rep.Record(tr)
	return rep.Err()
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
