// Benchmark suite: runs every generated benchmark circuit (the MCNC
// substitute) through the complete flow and prints the per-design table —
// LUTs, depth, CLBs, channel width, critical path, power, bitstream size,
// and whether the bitstream verified against the source.
//
// Run with: go run ./examples/benchsuite [-small]
package main

import (
	"flag"
	"log"
	"os"

	"fpgaflow/internal/circuits"
	"fpgaflow/internal/experiments"
)

func main() {
	small := flag.Bool("small", false, "use the small suite")
	verify := flag.Bool("verify", true, "verify each bitstream against its source")
	flag.Parse()
	suite := circuits.Suite()
	if *small {
		suite = circuits.SmallSuite()
	}
	if _, err := experiments.FullFlow(os.Stdout, suite, 1, *verify, nil); err != nil {
		log.Fatal(err)
	}
}
