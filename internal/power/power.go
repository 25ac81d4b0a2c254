// Package power implements the PowerModel stage of the flow, following the
// structure of Poon/Yan/Wilton's flexible FPGA power model: switched-
// capacitance dynamic power over the routed interconnect and the CLB
// internals, short-circuit power as a fraction of dynamic, and subthreshold
// leakage from the fabric's transistor inventory. Switching activities come
// from functional simulation (internal/sim).
package power

import (
	"fmt"
	"sort"

	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
	"fpgaflow/internal/sim"
)

// Report is a power estimate breakdown in watts.
type Report struct {
	DynamicRouting float64
	DynamicLogic   float64
	DynamicClock   float64
	ShortCircuit   float64
	Leakage        float64
	Total          float64
	// ClockHz is the clock frequency the estimate was made at.
	ClockHz float64
	// PerNet is the routing power per external net signal.
	PerNet map[string]float64
	// GatedClockSaving is the clock power that gating removed (0 when the
	// architecture has no gated clock).
	GatedClockSaving float64
}

// TopNets returns the n highest-power nets for reporting.
func (r *Report) TopNets(n int) []string {
	names := make([]string, 0, len(r.PerNet))
	for s := range r.PerNet {
		names = append(names, s)
	}
	sort.Slice(names, func(i, j int) bool {
		if r.PerNet[names[i]] != r.PerNet[names[j]] {
			return r.PerNet[names[i]] > r.PerNet[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	return names
}

// Estimate computes the power report for a placed-and-routed design running
// at clockHz with the given switching activity.
func Estimate(pk *pack.Packing, p *place.Problem, pl *place.Placement, r *route.Result,
	act *sim.Activity, clockHz float64) (*Report, error) {
	if clockHz <= 0 {
		return nil, fmt.Errorf("power: clock %v Hz", clockHz)
	}
	a := p.Arch
	tech := a.Tech
	g := r.Graph
	rep := &Report{ClockHz: clockHz, PerNet: make(map[string]float64)}

	density := func(signal string) float64 {
		if act == nil {
			return 0.25 // default uncorrelated estimate
		}
		if d, ok := act.Density[signal]; ok {
			return d
		}
		return 0.25
	}

	// Dynamic routing power: per net, the switched capacitance of every
	// occupied resource: wire C, switch diffusion at wire junctions, input
	// pin loads.
	swCd := tech.SwitchCDiff(a.Routing.SwitchWidthMult)
	for ni, nr := range r.Routes {
		if nr == nil {
			continue
		}
		cTotal := 0.0
		seen := map[int]bool{}
		for _, path := range nr.Paths {
			var prev rrgraph.NodeType
			for idx, id := range path {
				t := g.Type[id]
				if idx > 0 && t.IsWire() && prev.IsWire() {
					cTotal += swCd // junction switch loads the net once per hop
				}
				prev = t
				if seen[id] {
					continue
				}
				seen[id] = true
				cTotal += g.C[id]
			}
		}
		sigName := p.Nets[ni].Signal
		pw := 0.5 * density(sigName) * clockHz * tech.SwitchEnergy(cTotal)
		rep.PerNet[sigName] = pw
		rep.DynamicRouting += pw
	}

	// Dynamic logic power: per BLE, the LUT internal mux tree and the local
	// input muxes switch with their input/output activity.
	lutBits := 1 << uint(a.CLB.K)
	cLUTInternal := float64(2*(lutBits-1)) * tech.CDiffMin
	cLocalMux := float64(a.CLB.I+a.CLB.N)*tech.CDiffMin + tech.CGateMin
	for _, c := range pk.Clusters {
		for _, b := range c.BLEs {
			outD := density(b.Name())
			inD := 0.0
			ins := b.InputSignals()
			for _, in := range ins {
				inD += density(in)
			}
			if len(ins) > 0 {
				inD /= float64(len(ins))
			}
			// LUT tree switches with input changes; output load with output.
			pLUT := 0.5 * clockHz * (inD*tech.SwitchEnergy(cLUTInternal) + outD*tech.SwitchEnergy(tech.CGateMin*2))
			pMux := 0.5 * clockHz * inD * float64(len(ins)) * tech.SwitchEnergy(cLocalMux)
			rep.DynamicLogic += pLUT + pMux
		}
	}

	// Clock power: global spine across the grid + per-cluster local network
	// + per-FF clock loads. DETFF needs only clockHz/2 for the same data
	// rate; gating silences idle clusters and BLEs.
	fClk := clockHz
	if a.CLB.DoubleEdgeFF {
		fClk = clockHz / 2
	}
	spineC := tech.WireCap(float64(a.Rows*a.Cols), 1, 2) * 0.25 // H-tree estimate
	localClkC := tech.WireCap(0.5, 1, 2)                        // intra-CLB wiring
	ffClkC := 4 * tech.CGateMin                                 // clocked transistor gates per FF
	pClock := fClk * tech.SwitchEnergy(spineC)                  // spine always toggles (2 transitions/cycle * 1/2)
	ungated := pClock
	for _, c := range pk.Clusters {
		nFF := 0
		active := 0.0
		for _, b := range c.BLEs {
			if b.Registered() {
				nFF++
				d := density(b.Name())
				if d > active {
					active = d
				}
			}
		}
		if nFF == 0 {
			continue
		}
		cCluster := localClkC + float64(nFF)*ffClkC
		full := fClk * tech.SwitchEnergy(cCluster)
		ungated += full
		if a.CLB.GatedClock {
			// Gate overhead: the CLB NAND always sees the clock; the local
			// network and FFs only when the cluster is active. Activity of
			// the busiest FF approximates the cluster enable probability.
			gateC := 2 * tech.CGateMin
			pClock += fClk * (tech.SwitchEnergy(gateC) + active*tech.SwitchEnergy(cCluster))
		} else {
			pClock += full
		}
	}
	rep.DynamicClock = pClock
	if a.CLB.GatedClock {
		rep.GatedClockSaving = ungated - pClock
	}

	dynamic := rep.DynamicRouting + rep.DynamicLogic + rep.DynamicClock
	rep.ShortCircuit = tech.ShortCircuitFrac * dynamic

	// Leakage: every fabric transistor leaks; only half conduct per state
	// on average.
	rep.Leakage = 0.5 * float64(FabricTransistors(a)) * tech.LeakMin * tech.Vdd

	rep.Total = dynamic + rep.ShortCircuit + rep.Leakage
	return rep, nil
}
