// Command fpgaflow runs the complete integrated flow: VHDL (or BLIF) in,
// verified configuration bitstream out, with a per-stage report.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/core"
	"fpgaflow/internal/fault"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
)

func main() {
	out := flag.String("o", "", "write the bitstream to this file")
	top := flag.String("top", "", "top entity (VHDL input)")
	seed := flag.Int64("seed", 1, "seed")
	minW := flag.Bool("min-w", false, "search minimum channel width")
	greedy := flag.Bool("greedy", false, "greedy LUT mapper instead of FlowMap")
	noVerify := flag.Bool("no-verify", false, "skip the closing bitstream equivalence check")
	profile := flag.String("profile", "", "QoR objective: balanced (default), timing, min-delay, min-energy, min-area")
	timing := flag.Bool("timing", false, "alias for -profile timing")
	seeds := flag.Int("place-seeds", 1, "parallel placement seeds (keep the best)")
	clock := flag.Float64("clock", 0, "power-estimation clock in MHz (0 = fmax)")
	archFile := flag.String("arch", "", "DUTYS architecture file")
	defects := flag.String("defects", "", "defect map JSON (see cmd/faultgen); run defect-aware")
	retries := flag.Int("retries", 1, "max flow attempts (re-seed / escalate channel width on failure)")
	jobs := flag.Int("j", 0, "placement and routing workers (0 = GOMAXPROCS, 1 = serial); result is identical for every value")
	flag.IntVar(jobs, "parallel", 0, "alias for -j")
	stageTimeout := flag.Duration("stage-timeout", 0, "per-stage wall-time budget (0 = unbounded)")
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine)
	showVersion := obs.VersionFlag(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fpgaflow [options] design.vhd|design.blif\nRuns VHDL->bitstream with all paper tools; prints the stage report.\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *showVersion {
		obs.PrintVersion(os.Stdout, "fpgaflow")
		return
	}
	prof, err := core.ParseProfile(*profile)
	if err != nil {
		fatal(err)
	}
	if *timing && *profile != "" && prof != core.ProfileTiming {
		fmt.Fprintf(os.Stderr, "fpgaflow: -timing is -profile timing; it cannot be combined with -profile %s\n", *profile)
		os.Exit(2)
	} else if *timing {
		prof = core.ProfileTiming
	}
	src, err := readInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	tr, finishObs := obsFlags.Start("fpgaflow")
	opts := core.Options{
		Top: *top, Seed: *seed, MinChannelWidth: *minW,
		SkipVerify: *noVerify, ClockHz: *clock * 1e6, Profile: prof,
		PlaceSeeds: *seeds, PlaceWorkers: *jobs, RouteWorkers: *jobs, Obs: tr,
	}
	if *greedy {
		opts.Mapper = core.MapGreedy
	}
	if *archFile != "" {
		b, err := os.ReadFile(*archFile)
		if err != nil {
			fatal(err)
		}
		if opts.Arch, err = arch.Parse(string(b)); err != nil {
			fatal(err)
		}
	}
	if *defects != "" {
		dm, err := fault.Load(*defects)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, dm.Summary())
		opts.Defects = dm
	}
	opts.StageTimeout = *stageTimeout
	if *retries > 1 {
		opts.Retry = core.DefaultRetryPolicy()
		opts.Retry.MaxAttempts = *retries
	}
	var res *core.Result
	if netlist.IsBLIF(src) {
		res, err = core.RunBLIF(src, opts)
	} else {
		res, err = core.RunVHDL(src, opts)
	}
	if res != nil {
		fmt.Print(res.Summary())
	}
	ferr := finishObs()
	if err != nil {
		fatal(err)
	}
	if ferr != nil {
		fatal(fmt.Errorf("observability: %w", ferr))
	}
	if *out != "" {
		if err := os.WriteFile(*out, res.Encoded, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *out, len(res.Encoded))
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
