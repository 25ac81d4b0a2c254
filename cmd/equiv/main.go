// Command equiv checks functional equivalence of two netlists (BLIF files),
// the verification companion used throughout the flow: exhaustive over the
// inputs for small combinational designs, random-vector otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"

	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/sim"
)

func main() {
	vectors := flag.Int("vectors", 1000, "random vectors/cycles for large or sequential designs (at least 1)")
	exhaustive := flag.Int("exhaustive", 14, "exhaustive check up to this many inputs (0 to 63)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage: equiv a.blif b.blif
Exit codes: 0 equivalent, 1 not equivalent or load failure, 2 usage error,
3 port lists differ (the designs are not even comparable).
`)
	}
	showVersion := obs.VersionFlag(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		obs.PrintVersion(os.Stdout, "equiv")
		return
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	// A check that applies no vector would report any pair equivalent.
	if *vectors < 1 || *exhaustive < 0 || *exhaustive > 63 {
		fmt.Fprintf(os.Stderr, "equiv: -vectors %d must be at least 1 and -exhaustive %d within 0..63\n", *vectors, *exhaustive)
		os.Exit(2)
	}
	a, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	b, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	// Mismatched port lists get their own exit code: equivalence over
	// different interfaces is a category error, not a counterexample, and
	// scripts (CI, bisection) want to tell the two apart.
	if msg := portMismatch(a, b); msg != "" {
		fmt.Fprintln(os.Stderr, "PORT MISMATCH:", msg)
		os.Exit(3)
	}
	if err := sim.CheckEquivalent(a, b, *exhaustive, *vectors, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "NOT EQUIVALENT:", err)
		os.Exit(1)
	}
	fmt.Println("EQUIVALENT")
}

// portMismatch compares the primary input and output name sets of the two
// designs, returning a description of the first difference ("" when they
// match). Order is ignored: the flow freely reorders declarations.
func portMismatch(a, b *netlist.Netlist) string {
	ins := func(nl *netlist.Netlist) []string {
		names := make([]string, len(nl.Inputs))
		for i, n := range nl.Inputs {
			names[i] = n.Name
		}
		return names
	}
	if msg := setDiff("input", ins(a), ins(b)); msg != "" {
		return msg
	}
	return setDiff("output", a.Outputs, b.Outputs)
}

// setDiff sorts copies of a and b, so the callers' port lists keep their
// declaration order (a counterexample names outputs in that order).
func setDiff(kind string, a, b []string) string {
	a, b = slices.Clone(a), slices.Clone(b)
	sort.Strings(a)
	sort.Strings(b)
	in := func(xs []string, s string) bool {
		i := sort.SearchStrings(xs, s)
		return i < len(xs) && xs[i] == s
	}
	for _, s := range a {
		if !in(b, s) {
			return fmt.Sprintf("%s %q only in the first design", kind, s)
		}
	}
	for _, s := range b {
		if !in(a, s) {
			return fmt.Sprintf("%s %q only in the second design", kind, s)
		}
	}
	return ""
}

func load(path string) (*netlist.Netlist, error) {
	bts, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return netlist.ParseBLIF(string(bts))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
