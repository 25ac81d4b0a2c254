// Package timing performs static timing analysis on a placed-and-routed
// design: logic delays from the architecture's cell timing, interconnect
// delays from an Elmore RC model over the routed paths, and the resulting
// minimum clock period. With the paper's double-edge-triggered flip-flops
// the data rate is twice the clock frequency, so the achievable data rate
// is reported separately.
package timing

import (
	"fmt"
	"math"

	"fpgaflow/internal/netlist"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
)

// Analysis is the result of timing analysis.
type Analysis struct {
	// CriticalPath is the longest register-to-register / pad-to-pad delay
	// including flip-flop setup where applicable, in seconds.
	CriticalPath float64
	// CriticalSignal names the endpoint of the critical path.
	CriticalSignal string
	// MinPeriod is the minimum clock period (== CriticalPath).
	MinPeriod float64
	// MaxClockHz is 1/MinPeriod.
	MaxClockHz float64
	// MaxDataRateHz is the achievable data rate: 2x clock for DETFF
	// architectures, 1x otherwise.
	MaxDataRateHz float64
	// NetDelay maps "signal->sinkBlockName" to the routed interconnect
	// delay of that connection.
	NetDelay map[string]float64
	// ArrivalAt gives the arrival time of every signal.
	ArrivalAt map[string]float64
	// RequiredAt gives the latest time each signal may arrive without
	// stretching the critical path (backward pass from the endpoints).
	// Signals that reach no timing endpoint are absent; SlackAt treats
	// them as fully relaxed.
	RequiredAt map[string]float64
	// CriticalNodes lists the signals along the critical path, source
	// first.
	CriticalNodes []string
}

// SlackAt returns the signal's timing slack: how much later it could
// arrive without degrading the critical path. Signals on the critical
// path have (floating-point) zero slack; signals feeding no endpoint are
// fully relaxed (slack == CriticalPath). Never negative.
func (an *Analysis) SlackAt(signal string) float64 {
	req, ok := an.RequiredAt[signal]
	if !ok {
		return an.CriticalPath
	}
	s := req - an.ArrivalAt[signal]
	if s < 0 {
		return 0 // float drift on the critical path itself
	}
	if s > an.CriticalPath {
		return an.CriticalPath
	}
	return s
}

// ConnectionDelays computes the Elmore delay of every routed connection,
// keyed by net index then sink index (matching Problem.Nets order).
func ConnectionDelays(r *route.Result) [][]float64 {
	g := r.Graph
	a := g.Arch
	swRon := a.Tech.SwitchRon(a.Routing.SwitchWidthMult)
	swCd := a.Tech.SwitchCDiff(a.Routing.SwitchWidthMult)
	out := make([][]float64, len(r.Routes))
	for ni, nr := range r.Routes {
		if nr == nil {
			continue
		}
		out[ni] = make([]float64, len(nr.Paths))
		for si, path := range nr.Paths {
			// RC ladder: delay = sum_i C_i * R_upstream(i). Wire-to-wire
			// hops insert a routing switch (R and diffusion C); the source
			// OPin contributes its driver resistance.
			rUp := 0.0
			delay := 0.0
			var prevType rrgraph.NodeType
			for idx, id := range path {
				t := g.Type[id]
				if idx > 0 && t.IsWire() && prevType.IsWire() {
					rUp += swRon
					delay += rUp * swCd // switch diffusion on the junction
				}
				rUp += g.R[id]
				delay += rUp * g.C[id]
				prevType = t
			}
			out[ni][si] = delay
		}
	}
	return out
}

// Analyze computes the critical path of a packed, placed and routed design.
func Analyze(pk *pack.Packing, p *place.Problem, pl *place.Placement, r *route.Result) (*Analysis, error) {
	nl := pk.Netlist
	tech := p.Arch.Tech
	connDelay := ConnectionDelays(r)

	// Map (signal, sink block) -> routed delay.
	type connKey struct {
		signal string
		block  int
	}
	routed := make(map[connKey]float64)
	netDelay := make(map[string]float64)
	for ni, n := range p.Nets {
		for si, b := range n.Blocks[1:] {
			if connDelay[ni] == nil || si >= len(connDelay[ni]) {
				return nil, fmt.Errorf("timing: net %s sink %d unrouted", n.Signal, si)
			}
			d := connDelay[ni][si]
			routed[connKey{n.Signal, b}] = d
			netDelay[n.Signal+"->"+p.Blocks[b].Name] = d
		}
	}

	clusterBlockID := make(map[*pack.Cluster]int)
	for _, b := range p.Blocks {
		if b.Kind == place.BlockCLB {
			clusterBlockID[b.Cluster] = b.ID
		}
	}

	// interconnect returns the delay from signal src into the cluster of
	// consumer node n (0 for cluster-local feedback).
	interconnect := func(src string, consumer *pack.Cluster) float64 {
		if pk.ClusterOf(src) == consumer && consumer != nil {
			return 0 // local feedback through the cluster crossbar only
		}
		d, ok := routed[connKey{src, clusterBlockID[consumer]}]
		if !ok {
			return 0 // constant or optimized-away connection
		}
		return d
	}

	arrival := make(map[string]float64, nl.NumNodes())
	pred := make(map[string]string, nl.NumNodes())
	topo, err := nl.TopoSort()
	if err != nil {
		return nil, err
	}
	for _, n := range topo {
		switch n.Kind {
		case netlist.KindInput:
			arrival[n.Name] = tech.InPadDelay
		case netlist.KindLatch:
			arrival[n.Name] = tech.FFClkToQ
		case netlist.KindLogic:
			cl := pk.ClusterOf(n.Name)
			at := 0.0
			for _, f := range n.Fanin {
				t := arrival[f.Name] + interconnect(f.Name, cl)
				if t > at {
					at = t
					pred[n.Name] = f.Name
				}
			}
			arrival[n.Name] = at + tech.LocalMuxDelay + tech.LUTDelay
		}
	}

	an := &Analysis{NetDelay: netDelay, ArrivalAt: arrival}
	criticalStart := ""
	consider := func(t float64, name string) {
		if t > an.CriticalPath {
			an.CriticalPath = t
			an.CriticalSignal = name
		}
	}
	considerFrom := func(t float64, name, via string) {
		if t > an.CriticalPath {
			criticalStart = via
		}
		consider(t, name)
	}
	// Endpoints: latch D pins (+ setup, + interconnect into the latch's
	// cluster) and primary outputs (+ pad delay + routed delay to the pad).
	for _, n := range nl.Nodes() {
		if n.Kind != netlist.KindLatch {
			continue
		}
		d := n.Fanin[0]
		cl := pk.ClusterOf(n.Name)
		considerFrom(arrival[d.Name]+interconnect(d.Name, cl)+tech.FFSetup, n.Name+".D", d.Name)
	}
	for _, o := range nl.Outputs {
		padBlock := p.BlockByName("out:" + o)
		t := arrival[o]
		if padBlock >= 0 {
			if d, ok := routed[connKey{o, padBlock}]; ok {
				t += d
			}
		}
		considerFrom(t+tech.OutPadDelay, o, o)
	}
	if an.CriticalPath <= 0 {
		return nil, fmt.Errorf("timing: empty design (no endpoints)")
	}
	// Backward required-time pass: endpoints must close by the critical
	// path; each signal's required time is the min over its consumers of
	// (consumer requirement - consumer logic delay - interconnect). The
	// slack req - arrival is what NetCriticalities maps into [0,1].
	T := an.CriticalPath
	req := make(map[string]float64, nl.NumNodes())
	lower := func(name string, t float64) {
		if cur, ok := req[name]; !ok || t < cur {
			req[name] = t
		}
	}
	for _, n := range nl.Nodes() {
		if n.Kind != netlist.KindLatch {
			continue
		}
		d := n.Fanin[0]
		lower(d.Name, T-tech.FFSetup-interconnect(d.Name, pk.ClusterOf(n.Name)))
	}
	for _, o := range nl.Outputs {
		t := T - tech.OutPadDelay
		if padBlock := p.BlockByName("out:" + o); padBlock >= 0 {
			if d, ok := routed[connKey{o, padBlock}]; ok {
				t -= d
			}
		}
		lower(o, t)
	}
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		if n.Kind != netlist.KindLogic {
			continue
		}
		r, ok := req[n.Name]
		if !ok {
			continue // feeds no endpoint: fully relaxed
		}
		r -= tech.LocalMuxDelay + tech.LUTDelay
		cl := pk.ClusterOf(n.Name)
		for _, f := range n.Fanin {
			lower(f.Name, r-interconnect(f.Name, cl))
		}
	}
	an.RequiredAt = req
	// Backtrace the critical path, source first.
	for at := criticalStart; at != ""; at = pred[at] {
		an.CriticalNodes = append(an.CriticalNodes, at)
		if len(an.CriticalNodes) > nl.NumNodes() {
			break // defensive against cycles
		}
	}
	for i, j := 0, len(an.CriticalNodes)-1; i < j; i, j = i+1, j-1 {
		an.CriticalNodes[i], an.CriticalNodes[j] = an.CriticalNodes[j], an.CriticalNodes[i]
	}
	an.MinPeriod = an.CriticalPath
	an.MaxClockHz = 1 / an.MinPeriod
	an.MaxDataRateHz = an.MaxClockHz
	if p.Arch.CLB.DoubleEdgeFF {
		an.MaxDataRateHz *= 2
	}
	if math.IsInf(an.MaxClockHz, 0) || math.IsNaN(an.MaxClockHz) {
		return nil, fmt.Errorf("timing: non-finite clock frequency")
	}
	return an, nil
}
