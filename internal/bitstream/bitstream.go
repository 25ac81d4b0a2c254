// Package bitstream implements the DAGGER stage of the flow: generation of
// the FPGA configuration bitstream from a packed, placed and routed design,
// a binary codec for the frame format, and extraction of the configured
// netlist back out of a bitstream for verification.
package bitstream

import (
	"fmt"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
)

// BLEConfig is the configuration of one basic logic element.
type BLEConfig struct {
	// LUT holds the 2^K truth-table bits, index = input assignment with
	// LUT input 0 as bit 0.
	LUT []bool
	// Registered selects the flip-flop path through the BLE output mux.
	Registered bool
	// Init is the flip-flop power-up value.
	Init bool
	// ClockEnabled drives the BLE-level clock gate.
	ClockEnabled bool
	// InputSel selects the source of each LUT input: values in [0, I) pick
	// cluster input pins, [I, I+N) pick BLE outputs (feedback).
	InputSel []int
}

// CLBConfig is the configuration of one logic tile.
type CLBConfig struct {
	BLEs []BLEConfig
	// OutputSel maps each cluster output pin to the BLE driving it.
	OutputSel []int
	// ClockEnabled drives the CLB-level clock gate.
	ClockEnabled bool
}

// PadConfig describes one I/O pad sub-slot.
type PadConfig struct {
	Used bool
	// Input is true for pads driving the fabric (primary inputs).
	Input bool
	// Name is the port name carried alongside the configuration (the pad
	// map file of a conventional flow).
	Name string
	// PinIdx is the local OPin (for inputs) or IPin (for outputs) index of
	// the site that the pad's net was routed through. Unused pads keep 0.
	PinIdx int
}

// Bitstream is the full device configuration.
type Bitstream struct {
	Arch *arch.Arch
	// Graph is the routing-resource graph the routing frame enumerates:
	// the routed design's graph after Generate, the decoding graph after
	// Decode. Encode and Extract reuse it instead of rebuilding it.
	Graph     *rrgraph.Graph
	ModelName string
	// CLBs is indexed [x-1][y-1] over logic tiles.
	CLBs [][]*CLBConfig
	// Pads is keyed by (x, y, sub).
	Pads map[[3]int]*PadConfig
	// Routing is the routing frame: one bit per configurable edge of Graph,
	// indexed by its ordinal (rrgraph.Graph.ConfigEdge). Bit i%64 of word
	// i/64 is set when edge i is enabled.
	Routing []uint64
}

func newBitstream(a *arch.Arch, g *rrgraph.Graph, model string) *Bitstream {
	bs := &Bitstream{
		Arch:      a,
		Graph:     g,
		ModelName: model,
		CLBs:      make([][]*CLBConfig, a.Cols),
		Pads:      make(map[[3]int]*PadConfig),
		Routing:   make([]uint64, (g.NumConfigEdges()+63)/64),
	}
	for x := range bs.CLBs {
		bs.CLBs[x] = make([]*CLBConfig, a.Rows)
		for y := range bs.CLBs[x] {
			bs.CLBs[x][y] = emptyCLB(a)
		}
	}
	return bs
}

func emptyCLB(a *arch.Arch) *CLBConfig {
	c := &CLBConfig{
		BLEs:      make([]BLEConfig, a.CLB.N),
		OutputSel: make([]int, a.CLB.Outputs()),
	}
	for i := range c.BLEs {
		c.BLEs[i].LUT = make([]bool, 1<<uint(a.CLB.K))
		c.BLEs[i].InputSel = make([]int, a.CLB.K)
	}
	return c
}

// CLBAt returns the config of the logic tile at grid coordinates (x, y).
func (bs *Bitstream) CLBAt(x, y int) (*CLBConfig, error) {
	if x < 1 || x > bs.Arch.Cols || y < 1 || y > bs.Arch.Rows {
		return nil, fmt.Errorf("bitstream: (%d,%d) is not a logic tile", x, y)
	}
	return bs.CLBs[x-1][y-1], nil
}

// Generate builds the configuration for a routed design.
func Generate(pk *pack.Packing, p *place.Problem, pl *place.Placement, r *route.Result) (*Bitstream, error) {
	a := p.Arch
	g := r.Graph
	if !r.Success {
		return nil, fmt.Errorf("bitstream: routing was not successful")
	}
	bs := newBitstream(a, g, pk.Netlist.Name)

	// Routing configuration and per-connection pin bookkeeping.
	type connKey struct {
		signal string
		block  int
	}
	inPinOf := make(map[connKey]int) // (signal, sink block) -> IPin pin index
	outPinOf := make(map[string]int) // signal -> OPin pin index at its source
	outSubOf := make(map[string]int) // pad-driven signal -> pad sub (OPin pin)
	for ni, nr := range r.Routes {
		net := p.Nets[ni]
		for si, path := range nr.Paths {
			sinkBlock := net.Blocks[si+1]
			for i := 0; i+1 < len(path); i++ {
				from, to := path[i], path[i+1]
				if !isWire(g, from) && !isWire(g, to) {
					continue // Source->OPin and IPin->Sink are hard-wired
				}
				ord, ok := g.ConfigEdge(from, to)
				if !ok {
					return nil, fmt.Errorf("bitstream: net %q hop %d->%d is not a configurable edge", net.Signal, from, to)
				}
				bs.Routing[ord/64] |= 1 << uint(ord%64)
			}
			// Record pin usage at both ends.
			if len(path) < 2 {
				continue
			}
			if op := path[1]; g.Type[op] == rrgraph.OPin {
				if g.Kind(int(g.X[op]), int(g.Y[op])) == rrgraph.SiteCLB {
					outPinOf[net.Signal] = int(g.Pin[op]) - a.CLB.I
				} else {
					outSubOf[net.Signal] = int(g.Pin[op])
				}
			}
			if ip := path[len(path)-2]; g.Type[ip] == rrgraph.IPin {
				inPinOf[connKey{net.Signal, sinkBlock}] = int(g.Pin[ip])
			}
		}
	}

	// Pad table: pads stay at their placement sub-slots; PinIdx records the
	// physical pin their routed net used.
	for _, b := range p.Blocks {
		l := pl.Loc[b.ID]
		key := [3]int{l.X, l.Y, l.Sub}
		switch b.Kind {
		case place.BlockInpad:
			pin, driven := outSubOf[b.Name]
			bs.Pads[key] = &PadConfig{Used: driven, Input: true, Name: b.Name, PinIdx: pin}
		case place.BlockOutpad:
			signal := b.Name[len("out:"):]
			pin, ok := inPinOf[connKey{signal, b.ID}]
			if !ok {
				return nil, fmt.Errorf("bitstream: output %q not routed to its pad", signal)
			}
			bs.Pads[key] = &PadConfig{Used: true, Input: false, Name: signal, PinIdx: pin}
		}
	}

	// CLB configuration.
	clusterBlockID := make(map[*pack.Cluster]int)
	for _, b := range p.Blocks {
		if b.Kind == place.BlockCLB {
			clusterBlockID[b.Cluster] = b.ID
		}
	}
	for _, b := range p.Blocks {
		if b.Kind != place.BlockCLB {
			continue
		}
		l := pl.Loc[b.ID]
		cfg, err := bs.CLBAt(l.X, l.Y)
		if err != nil {
			return nil, err
		}
		c := b.Cluster
		bleIndex := make(map[string]int, len(c.BLEs))
		for i, ble := range c.BLEs {
			bleIndex[ble.Name()] = i
		}
		anyFF := false
		for i, ble := range c.BLEs {
			bc := &cfg.BLEs[i]
			if err := fillBLE(bc, ble, a); err != nil {
				return nil, err
			}
			if bc.Registered {
				anyFF = true
			}
			// Input selects.
			for k, src := range bleInputs(ble) {
				if j, internal := bleIndex[src]; internal {
					bc.InputSel[k] = a.CLB.I + j
					continue
				}
				pin, ok := inPinOf[connKey{src, b.ID}]
				if !ok {
					return nil, fmt.Errorf("bitstream: cluster %d input %q has no routed pin", c.ID, src)
				}
				bc.InputSel[k] = pin
			}
		}
		cfg.ClockEnabled = anyFF
		// Output crossbar: route-derived pin assignment.
		for sig, pin := range outPinOf {
			if pk.ClusterOf(sig) != c {
				continue
			}
			j, ok := bleIndex[sig]
			if !ok {
				return nil, fmt.Errorf("bitstream: signal %q sourced at cluster %d but no BLE", sig, c.ID)
			}
			if pin < 0 || pin >= len(cfg.OutputSel) {
				return nil, fmt.Errorf("bitstream: output pin %d out of range", pin)
			}
			cfg.OutputSel[pin] = j
		}
	}
	return bs, nil
}

// bleInputs returns the LUT input signals of a BLE (the D signal for a
// route-through register).
func bleInputs(b *pack.BLE) []string {
	return b.InputSignals()
}

// ExpectedLUT computes the 2^k-entry LUT mask a BLE must carry: the node's
// truth table replicated over the unused high inputs, or the identity on
// input 0 for a route-through register. The stage-boundary checker
// (internal/check) uses it to cross-check decoded bitstreams against the
// packed netlist.
func ExpectedLUT(b *pack.BLE, k int) ([]bool, error) {
	lut := make([]bool, 1<<uint(k))
	if b.LUT != nil {
		nf := len(b.LUT.Fanin)
		if nf > k {
			return nil, fmt.Errorf("bitstream: LUT %q has %d > K=%d inputs", b.LUT.Name, nf, k)
		}
		tt, err := netlist.TruthTable(b.LUT)
		if err != nil {
			return nil, err
		}
		mask := (1 << uint(nf)) - 1
		for m := range lut {
			lut[m] = tt[m&mask]
		}
	} else {
		// Route-through register: LUT passes input 0.
		for m := range lut {
			lut[m] = m&1 != 0
		}
	}
	return lut, nil
}

// fillBLE writes the LUT truth table, register mux and clock gate bits.
func fillBLE(bc *BLEConfig, b *pack.BLE, a *arch.Arch) error {
	lut, err := ExpectedLUT(b, a.CLB.K)
	if err != nil {
		return err
	}
	copy(bc.LUT, lut)
	bc.Registered = b.FF != nil
	bc.ClockEnabled = b.FF != nil
	if b.FF != nil {
		bc.Init = b.FF.Init == '1'
	}
	return nil
}
