// Command sisopt is the SIS stage of the flow: technology-independent
// optimization and K-LUT technology mapping of a BLIF netlist.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fpgaflow/internal/logic"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/techmap"
)

func main() {
	k := flag.Int("k", 4, "LUT input count")
	mapOnly := flag.Bool("map-only", false, "skip optimization, only LUT-map")
	optOnly := flag.Bool("opt-only", false, "only optimize, skip LUT mapping")
	greedy := flag.Bool("greedy", false, "use the greedy area mapper instead of FlowMap")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sisopt [-k N] [-greedy] [-map-only|-opt-only] [file.blif]\nOptimizes and LUT-maps BLIF on stdout.\n")
	}
	showVersion := obs.VersionFlag(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		obs.PrintVersion(os.Stdout, "sisopt")
		return
	}
	src, err := readInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	nl, err := netlist.ParseBLIF(src)
	if err != nil {
		fatal(err)
	}
	if !*mapOnly {
		if _, err := logic.Optimize(nl); err != nil {
			fatal(err)
		}
	}
	if *optOnly {
		fmt.Print(netlist.FormatBLIF(nl))
		return
	}
	if err := logic.Decompose(nl); err != nil {
		fatal(err)
	}
	var res *techmap.Result
	if *greedy {
		res, err = techmap.MapGreedy(nl, *k)
	} else {
		res, err = techmap.FlowMap(nl, *k)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sisopt: %d LUTs, depth %d\n", res.LUTs, res.Depth)
	fmt.Print(netlist.FormatBLIF(res.Netlist))
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
