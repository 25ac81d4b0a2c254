// Command tvpack is the T-VPack stage: it packs a K-LUT BLIF netlist into
// CLB clusters and reports the packing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fpgaflow/internal/check"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/pack"
)

func main() {
	n := flag.Int("n", 5, "cluster size (BLEs per CLB)")
	k := flag.Int("k", 4, "LUT inputs")
	i := flag.Int("i", 0, "cluster inputs (0 = (K/2)(N+1))")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tvpack [-n N] [-k K] [-i I] [file.blif]\nPacks LUTs+FFs into clusters; prints the clustering.\n")
	}
	showVersion := obs.VersionFlag(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		obs.PrintVersion(os.Stdout, "tvpack")
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
	inputs := *i
	if inputs == 0 {
		inputs = pack.InputsForUtilization(*k, *n)
	}
	pk, err := pack.Pack(nl, pack.Params{N: *n, K: *k, I: inputs})
	if err != nil {
		fatal(err)
	}
	if err := check.RunStage(check.StagePack, &check.Artifacts{Packing: pk}).Err(); err != nil {
		fatal(err)
	}
	fmt.Printf("# tvpack: %d BLEs in %d clusters (N=%d K=%d I=%d), %.1f%% utilization\n",
		len(pk.BLEs), len(pk.Clusters), *n, *k, inputs, 100*pk.Utilization())
	for _, c := range pk.Clusters {
		outs := strings.Join(c.Outputs(), " ")
		fmt.Printf("cluster %d: bles [%s] inputs [%s] clock %q\n",
			c.ID, outs, strings.Join(c.Inputs, " "), c.Clock)
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
