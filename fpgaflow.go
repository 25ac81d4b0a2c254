// Package fpgaflow is the public facade of the integrated FPGA design
// framework: a reproduction of "An Integrated FPGA Design Framework: Custom
// Designed FPGA Platform and Application Mapping Toolset Development"
// (Kalenteridis et al., IPPS 2004).
//
// The framework has two halves, mirroring the paper:
//
//   - A model of the custom low-energy island-style FPGA platform:
//     cluster-based CLBs (N=5 BLEs, 4-input LUTs, 12 inputs), double-edge-
//     triggered flip-flops with clock gating, and a pass-transistor routing
//     fabric sized by the energy-delay-area exploration of §3.3.
//
//   - The complete CAD flow from VHDL to configuration bitstream: VHDL
//     Parser, DIVINER (synthesis), DRUID (EDIF normalization), E2FMT
//     (EDIF→BLIF), SIS (logic optimization + FlowMap LUT mapping), T-VPack
//     (packing), DUTYS (architecture generation), VPR (placement and
//     routing), PowerModel and DAGGER (bitstream generation), plus the
//     browser GUI.
//
// Run executes the whole flow; the cmd/ directory exposes each tool
// standalone, and internal/experiments regenerates every table and figure
// of the paper (see EXPERIMENTS.md).
package fpgaflow

import (
	"fpgaflow/internal/arch"
	"fpgaflow/internal/core"
	"fpgaflow/internal/netlist"
)

// Options re-exports the flow options.
type Options = core.Options

// Result re-exports the flow result.
type Result = core.Result

// Metrics re-exports the flow summary metrics.
type Metrics = core.Metrics

// Mapper selection.
const (
	MapFlowMap = core.MapFlowMap
	MapGreedy  = core.MapGreedy
)

// Profile re-exports the QoR objective profiles (Options.Profile).
type Profile = core.Profile

// QoR objective profiles: the fpgaflow -profile values.
const (
	ProfileBalanced  = core.ProfileBalanced
	ProfileMinDelay  = core.ProfileMinDelay
	ProfileMinEnergy = core.ProfileMinEnergy
	ProfileMinArea   = core.ProfileMinArea
)

// PaperArch returns the architecture selected by the paper (§3): N=5, K=4,
// I=12, DETFFs, gated clocks, disjoint switch boxes with 10x pass
// transistors on length-1 wires at minimum width and double spacing.
func PaperArch() *arch.Arch { return arch.Paper() }

// Run executes the complete flow on a design given as VHDL or BLIF text
// (auto-detected) and returns the per-stage results, metrics, and the
// configuration bitstream.
func Run(source string, opts Options) (*Result, error) {
	if netlist.IsBLIF(source) {
		return core.RunBLIF(source, opts)
	}
	return core.RunVHDL(source, opts)
}
