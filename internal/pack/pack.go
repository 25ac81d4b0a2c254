// Package pack implements the T-VPack stage of the flow: it groups each LUT
// with an optional flip-flop into a Basic Logic Element (BLE), then packs
// BLEs into clusters (CLBs) of size N with at most I distinct external
// inputs and one clock, using the greedy attraction-based algorithm of
// Betz/Marquardt. The paper's CLB is N=5, K=4, I=12 with a fully connected
// local network, so any BLE output can feed any LUT input inside a cluster.
package pack

import (
	"fmt"
	"sort"

	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
)

// BLE is one basic logic element: a LUT, a flip-flop, or a LUT whose output
// is registered by the flip-flop (Fig. 1a of the paper).
type BLE struct {
	// LUT is the combinational node, nil for a route-through register.
	LUT *netlist.Node
	// FF is the latch node, nil for a purely combinational BLE.
	FF *netlist.Node
}

// Name returns the BLE's output signal name.
func (b *BLE) Name() string {
	if b.FF != nil {
		return b.FF.Name
	}
	return b.LUT.Name
}

// InputSignals returns the signal names the BLE consumes.
func (b *BLE) InputSignals() []string {
	if b.LUT != nil {
		in := make([]string, len(b.LUT.Fanin))
		for i, f := range b.LUT.Fanin {
			in[i] = f.Name
		}
		return in
	}
	return []string{b.FF.Fanin[0].Name}
}

// Registered reports whether the BLE output comes from the flip-flop.
func (b *BLE) Registered() bool { return b.FF != nil }

// Clock returns the BLE's clock domain: "" for a combinational BLE, else
// the latch's clock, with an unnamed clock meaning the single implicit
// global clock "clk".
func (b *BLE) Clock() string {
	if b.FF == nil {
		return ""
	}
	if b.FF.Clock == "" {
		return "clk"
	}
	return b.FF.Clock
}

// Cluster is one CLB: up to N BLEs sharing I external inputs and one clock.
type Cluster struct {
	ID   int
	BLEs []*BLE
	// Inputs are the distinct external input signals, sorted.
	Inputs []string
	// Clock is the clock signal name ("" when no BLE is registered).
	Clock string
}

// Outputs returns the BLE output signal names in BLE order.
func (c *Cluster) Outputs() []string {
	out := make([]string, len(c.BLEs))
	for i, b := range c.BLEs {
		out[i] = b.Name()
	}
	return out
}

// Params are the CLB architecture parameters.
type Params struct {
	N int // cluster size (BLEs per CLB)
	K int // LUT inputs
	I int // distinct cluster inputs
	// GroupGated enables power-aware attraction: registered BLEs prefer
	// clusters that already hold flip-flops and purely combinational BLEs
	// prefer FF-free clusters. Each CLB's clock tree is gated as a unit,
	// so concentrating the registers into fewer clusters lets more of the
	// clock network stay dark (the power model charges clock power per
	// cluster containing at least one FF).
	GroupGated bool
}

// PaperParams returns the CLB selected in the paper: N=5, K=4, I=12
// (I = (K/2)*(N+1), Eq. 1).
func PaperParams() Params { return Params{N: 5, K: 4, I: 12} }

// InputsForUtilization applies the paper's Eq. (1): I = (K/2)(N+1).
func InputsForUtilization(k, n int) int { return k * (n + 1) / 2 }

// Packing is the result of clustering a mapped netlist.
type Packing struct {
	Netlist  *netlist.Netlist
	Params   Params
	BLEs     []*BLE
	Clusters []*Cluster
	// bleOf maps a BLE output signal name to its cluster.
	bleCluster map[string]*Cluster
}

// ClusterOf returns the cluster producing the named signal, or nil for
// primary inputs.
func (p *Packing) ClusterOf(signal string) *Cluster { return p.bleCluster[signal] }

// Utilization is the fraction of BLE slots in use across all clusters.
func (p *Packing) Utilization() float64 {
	if len(p.Clusters) == 0 {
		return 1
	}
	return float64(len(p.BLEs)) / float64(len(p.Clusters)*p.Params.N)
}

// ClockedClusters counts the clusters containing at least one flip-flop —
// the clusters whose clock tree segment must toggle. Power-aware packing
// (Params.GroupGated) exists to minimize this number.
func (p *Packing) ClockedClusters() int {
	n := 0
	for _, c := range p.Clusters {
		if c.Clock != "" {
			n++
		}
	}
	return n
}

// Record emits the packing's cluster-fill metrics to an observability
// trace: pack.clusters, pack.bles, pack.registered_bles, pack.clocked_clusters,
// pack.cluster_inputs and the pack.ble_fill gauge. nil trace is a no-op.
func (p *Packing) Record(tr *obs.Trace) {
	if tr == nil {
		return
	}
	tr.Add("pack.clusters", int64(len(p.Clusters)))
	tr.Add("pack.bles", int64(len(p.BLEs)))
	var registered, inputs int64
	for _, b := range p.BLEs {
		if b.Registered() {
			registered++
		}
	}
	for _, c := range p.Clusters {
		inputs += int64(len(c.Inputs))
	}
	tr.Add("pack.registered_bles", registered)
	tr.Add("pack.clocked_clusters", int64(p.ClockedClusters()))
	tr.Add("pack.cluster_inputs", inputs)
	tr.Gauge("pack.ble_fill").Set(p.Utilization())
}

// Pack clusters a K-LUT netlist. Every logic node must have at most K
// fanins; latches must share a single clock.
func Pack(nl *netlist.Netlist, params Params) (*Packing, error) {
	if params.N < 1 || params.K < 2 || params.I < params.K {
		return nil, fmt.Errorf("pack: implausible params %+v", params)
	}
	for _, n := range nl.Nodes() {
		if n.Kind == netlist.KindLogic && len(n.Fanin) > params.K {
			return nil, fmt.Errorf("pack: node %q has %d > K=%d inputs", n.Name, len(n.Fanin), params.K)
		}
	}
	bles, err := formBLEs(nl)
	if err != nil {
		return nil, err
	}
	p := &Packing{
		Netlist:    nl,
		Params:     params,
		BLEs:       bles,
		bleCluster: make(map[string]*Cluster),
	}
	if err := p.cluster(); err != nil {
		return nil, err
	}
	return p, nil
}

// formBLEs pairs each latch with its driving LUT when the LUT's only fanout
// is the latch; otherwise latch and LUT become separate BLEs.
func formBLEs(nl *netlist.Netlist) ([]*BLE, error) {
	nl.BuildFanout()
	used := make([]bool, nl.NumNodes()) // LUTs paired with a latch, by ID
	var bles []*BLE
	for _, n := range nl.Nodes() {
		if n.Kind != netlist.KindLatch {
			continue
		}
		d := n.Fanin[0]
		if d.Kind == netlist.KindLogic && len(d.Fanout()) == 1 && !nl.IsOutput(d.Name) && !used[d.ID()] {
			bles = append(bles, &BLE{LUT: d, FF: n})
			used[d.ID()] = true
		} else {
			bles = append(bles, &BLE{FF: n}) // route-through register
		}
	}
	for _, n := range nl.Nodes() {
		if n.Kind == netlist.KindLogic && !used[n.ID()] {
			bles = append(bles, &BLE{LUT: n})
		}
	}
	return bles, nil
}

// cluster runs the greedy seed-and-attract packing.
func (p *Packing) cluster() error {
	producer := make(map[string]*BLE, len(p.BLEs))
	for _, b := range p.BLEs {
		producer[b.Name()] = b
	}
	clustered := make(map[*BLE]bool, len(p.BLEs))

	// Order seeds by number of inputs (desc) as T-VPack does, then by name
	// for determinism.
	seeds := append([]*BLE(nil), p.BLEs...)
	sort.Slice(seeds, func(i, j int) bool {
		ni, nj := len(seeds[i].InputSignals()), len(seeds[j].InputSignals())
		if ni != nj {
			return ni > nj
		}
		return seeds[i].Name() < seeds[j].Name()
	})

	for _, seed := range seeds {
		if clustered[seed] {
			continue
		}
		c := &Cluster{ID: len(p.Clusters)}
		if err := p.tryAdd(c, seed); err != nil {
			return fmt.Errorf("pack: seed %q does not fit an empty cluster: %w", seed.Name(), err)
		}
		clustered[seed] = true
		for len(c.BLEs) < p.Params.N {
			best := p.bestAttraction(c, clustered, producer)
			if best == nil {
				break
			}
			if err := p.tryAdd(c, best); err != nil {
				break
			}
			clustered[best] = true
		}
		p.Clusters = append(p.Clusters, c)
		for _, b := range c.BLEs {
			p.bleCluster[b.Name()] = c
		}
	}
	return nil
}

// bestAttraction returns the unclustered BLE sharing the most nets with the
// cluster that still fits, or nil.
func (p *Packing) bestAttraction(c *Cluster, clustered map[*BLE]bool, producer map[string]*BLE) *BLE {
	inCluster := make(map[string]bool)
	for _, b := range c.BLEs {
		inCluster[b.Name()] = true
		for _, in := range b.InputSignals() {
			inCluster[in] = true
		}
	}
	var best *BLE
	bestScore := -1
	clusterClocked := c.Clock != ""
	for _, cand := range p.BLEs {
		if clustered[cand] {
			continue
		}
		score := 0
		if inCluster[cand.Name()] {
			score += 2 // candidate feeds the cluster: absorbing removes an input
		}
		for _, in := range cand.InputSignals() {
			if inCluster[in] {
				score++
			}
		}
		if p.Params.GroupGated && cand.Registered() == clusterClocked {
			score += 2 // share the gated clock enable (or keep the cluster dark)
		}
		// First-best wins on ties; BLE order is deterministic. Like T-VPack,
		// a zero-attraction BLE still fills the cluster when nothing related
		// fits: full clusters (~98% utilization at I=(K/2)(N+1), paper Eq. 1)
		// beat spilling unrelated logic into extra CLBs.
		if score > bestScore && p.fits(c, cand) {
			best, bestScore = cand, score
		}
	}
	return best
}

// fits reports whether adding cand keeps the cluster within N, I and clock
// constraints.
func (p *Packing) fits(c *Cluster, cand *BLE) bool {
	if len(c.BLEs) >= p.Params.N {
		return false
	}
	if cand.FF != nil && c.Clock != "" && cand.Clock() != c.Clock {
		return false
	}
	return len(p.externalInputs(append(c.BLEs[:len(c.BLEs):len(c.BLEs)], cand))) <= p.Params.I
}

// tryAdd adds the BLE, failing if constraints break.
func (p *Packing) tryAdd(c *Cluster, b *BLE) error {
	if !p.fits(c, b) {
		return fmt.Errorf("BLE %q does not fit cluster %d", b.Name(), c.ID)
	}
	c.BLEs = append(c.BLEs, b)
	if b.FF != nil && c.Clock == "" {
		c.Clock = b.Clock()
	}
	c.Inputs = p.externalInputs(c.BLEs)
	return nil
}

// ExternalInputsOf returns the sorted distinct signals the BLE set consumes
// that no member produces. The stage-boundary checker (internal/check) uses
// it to recompute cluster input lists independently of the stored ones.
func (p *Packing) ExternalInputsOf(bles []*BLE) []string { return p.externalInputs(bles) }

// externalInputs returns the sorted distinct signals consumed by the BLE set
// that no member produces.
func (p *Packing) externalInputs(bles []*BLE) []string {
	local := make(map[string]bool, len(bles))
	for _, b := range bles {
		local[b.Name()] = true
	}
	set := make(map[string]bool)
	for _, b := range bles {
		for _, in := range b.InputSignals() {
			if !local[in] {
				set[in] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Net is an inter-cluster (or I/O) net: one source signal and the clusters
// and primary outputs that consume it.
type Net struct {
	Signal string
	// SourceCluster is nil when a primary input drives the net.
	SourceCluster *Cluster
	// SinkClusters lists consuming clusters (deduplicated, by ID order).
	SinkClusters []*Cluster
	// IsPrimaryOutput marks nets that also leave through an output pad.
	IsPrimaryOutput bool
}

// ExternalNets computes the nets that must be routed between clusters and
// pads. Cluster-internal connections (both endpoints in one cluster and the
// signal not a primary output) do not appear.
func (p *Packing) ExternalNets() []*Net {
	nets := make(map[string]*Net)
	ensure := func(signal string) *Net {
		n, ok := nets[signal]
		if !ok {
			n = &Net{Signal: signal, SourceCluster: p.bleCluster[signal]}
			nets[signal] = n
		}
		return n
	}
	for _, c := range p.Clusters {
		for _, in := range c.Inputs {
			n := ensure(in)
			if n.SourceCluster == c {
				continue
			}
			dup := false
			for _, s := range n.SinkClusters {
				if s == c {
					dup = true
					break
				}
			}
			if !dup {
				n.SinkClusters = append(n.SinkClusters, c)
			}
		}
	}
	for _, o := range p.Netlist.Outputs {
		ensure(o).IsPrimaryOutput = true
	}
	out := make([]*Net, 0, len(nets))
	for _, n := range nets {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Signal < out[j].Signal })
	for _, n := range out {
		sort.Slice(n.SinkClusters, func(i, j int) bool { return n.SinkClusters[i].ID < n.SinkClusters[j].ID })
	}
	return out
}
