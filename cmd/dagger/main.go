// Command dagger is the paper's bitstream generator: it runs the back end
// (pack, place, route) on a mapped BLIF netlist and writes the binary
// configuration bitstream. With -extract it reverses a bitstream back to
// BLIF for inspection/verification.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fpgaflow/internal/bitstream"
	"fpgaflow/internal/core"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
)

func main() {
	out := flag.String("o", "design.bit", "output bitstream file")
	extract := flag.String("extract", "", "decode a bitstream file back to BLIF on stdout")
	diffA := flag.String("diff", "", "with -against: report the partial-reconfiguration delta")
	diffB := flag.String("against", "", "second bitstream for -diff")
	seed := flag.Int64("seed", 1, "placement seed")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dagger [-o out.bit] [file.blif]\n       dagger -extract design.bit\n       dagger -diff a.bit -against b.bit\n")
	}
	showVersion := obs.VersionFlag(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		obs.PrintVersion(os.Stdout, "dagger")
		return
	}
	if *diffA != "" || *diffB != "" {
		if *diffA == "" || *diffB == "" {
			fatal(fmt.Errorf("-diff and -against must be used together"))
		}
		a, err := loadBitstream(*diffA)
		if err != nil {
			fatal(err)
		}
		b, err := loadBitstream(*diffB)
		if err != nil {
			fatal(err)
		}
		d, err := bitstream.Diff(a, b)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("partial reconfiguration %s -> %s: %d changed items (%d tiles, %d pads, %d switches, %d opin, %d ipin)\n",
			a.ModelName, b.ModelName, d.Size(), len(d.CLBs), len(d.Pads),
			d.Switches, d.OPins, d.IPins)
		return
	}
	if *extract != "" {
		data, err := os.ReadFile(*extract)
		if err != nil {
			fatal(err)
		}
		bs, err := bitstream.Decode(data)
		if err != nil {
			fatal(err)
		}
		nl, err := bitstream.Extract(bs)
		if err != nil {
			fatal(err)
		}
		fmt.Print(netlist.FormatBLIF(nl))
		return
	}
	src, err := readInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	res, err := core.RunBLIF(src, core.Options{Seed: *seed})
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, res.Encoded, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("dagger: wrote %d bytes to %s (verified: %v)\n", len(res.Encoded), *out, res.Verified)
}

func loadBitstream(path string) (*bitstream.Bitstream, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return bitstream.Decode(data)
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
