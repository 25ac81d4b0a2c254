// Low-power architecture exploration: the paper's central design activity.
// This example reruns the §3 decisions on a workload: it compares the
// double-edge-triggered flip-flop and clock-gating features at flow level,
// and sweeps LUT size K to show the K=4 energy optimum.
//
// Run with: go run ./examples/lowpower
package main

import (
	"fmt"
	"log"
	"os"

	"fpgaflow"
	"fpgaflow/internal/arch"
	"fpgaflow/internal/circuits"
	"fpgaflow/internal/experiments"
	"fpgaflow/internal/pack"
)

func main() {
	workload := circuits.Counter(8)
	fmt.Println("== feature ablation on", workload.Name, "(100 MHz data rate) ==")
	type variant struct {
		name         string
		gated, detff bool
	}
	for _, v := range []variant{
		{"DETFF + gated clock (paper)", true, true},
		{"DETFF, no clock gating", false, true},
		{"SETFF + gated clock", true, false},
		{"SETFF, no gating (baseline)", false, false},
	} {
		a := arch.Paper()
		a.CLB.GatedClock = v.gated
		a.CLB.DoubleEdgeFF = v.detff
		res, err := fpgaflow.Run(workload.VHDL, fpgaflow.Options{
			Seed: 1, Arch: a, AutoSizeGrid: true, ClockHz: 100e6, SkipVerify: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-30s clock %7.4f mW, total %7.4f mW\n",
			v.name, res.Power.DynamicClock*1e3, res.Power.Total*1e3)
	}

	fmt.Println("\n== LUT size exploration (paper §3.1: K=4 minimizes energy) ==")
	if _, err := experiments.ExploreLUTSize(os.Stdout, circuits.SmallSuite(), 1, nil); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== cluster input rule I=(K/2)(N+1) ==")
	fmt.Printf("K=4, N=5 -> I=%d (the paper's CLB)\n", pack.InputsForUtilization(4, 5))
	if _, err := experiments.ExploreClusterInputs(os.Stdout, circuits.SmallSuite()); err != nil {
		log.Fatal(err)
	}
}
