// Command experiments regenerates the paper's tables and figures plus the
// architecture explorations; see EXPERIMENTS.md for the mapping.
package main

import (
	"flag"
	"fmt"
	"os"

	"fpgaflow/internal/circuits"
	"fpgaflow/internal/experiments"
	"fpgaflow/internal/obs"
)

func main() {
	run := flag.String("run", "all", "experiment: table1|table2|table3|fig8|fig9|fig10|tristate|lutsize|clustersize|segment|headline|inputs|flow|all")
	small := flag.Bool("small", false, "use the small benchmark suite for flow sweeps")
	seed := flag.Int64("seed", 1, "seed")
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine)
	showVersion := obs.VersionFlag(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		obs.PrintVersion(os.Stdout, "experiments")
		return
	}
	tr, finishObs := obsFlags.Start("experiments")
	w := os.Stdout
	suite := circuits.Suite()
	if *small {
		suite = circuits.SmallSuite()
	}
	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	sel := func(name string) bool { return *run == "all" || *run == name }
	if sel("table1") {
		_, err := experiments.Table1(w)
		fail(err)
		fmt.Fprintln(w)
	}
	if sel("table2") {
		_, err := experiments.Table2(w)
		fail(err)
		fmt.Fprintln(w)
	}
	if sel("table3") {
		_, err := experiments.Table3(w)
		fail(err)
		fmt.Fprintln(w)
	}
	if sel("fig8") {
		experiments.Fig8(w)
		fmt.Fprintln(w)
	}
	if sel("fig9") {
		experiments.Fig9(w)
		fmt.Fprintln(w)
	}
	if sel("fig10") {
		experiments.Fig10(w)
		fmt.Fprintln(w)
	}
	if sel("tristate") {
		experiments.TriState(w)
		fmt.Fprintln(w)
	}
	if sel("inputs") {
		isuite := experiments.UtilizationSuite()
		if *small {
			isuite = suite
		}
		_, err := experiments.ExploreClusterInputs(w, isuite)
		fail(err)
		fmt.Fprintln(w)
	}
	if sel("lutsize") {
		_, err := experiments.ExploreLUTSize(w, suite, *seed, tr)
		fail(err)
		fmt.Fprintln(w)
	}
	if sel("clustersize") {
		_, err := experiments.ExploreClusterSize(w, suite, *seed, tr)
		fail(err)
		fmt.Fprintln(w)
	}
	if sel("headline") {
		_, err := experiments.PaperVsBaseline(w, suite, *seed, tr)
		fail(err)
		fmt.Fprintln(w)
	}
	if sel("segment") {
		_, err := experiments.ExploreSegmentLength(w, suite, *seed, tr)
		fail(err)
		fmt.Fprintln(w)
	}
	if sel("flow") {
		_, err := experiments.FullFlow(w, suite, *seed, true, tr)
		fail(err)
	}
	fail(finishObs())
}
