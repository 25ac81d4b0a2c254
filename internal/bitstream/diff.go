package bitstream

import (
	"fmt"
	"reflect"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/rrgraph"
)

// Partial reconfiguration support: Diff computes the configuration delta
// between two bitstreams for the same architecture, and Apply patches a
// device configuration in place. Reconfiguring only the changed tiles and
// switches is how a deployed design is updated without a full reload.

// Delta is the difference between two configurations.
type Delta struct {
	ModelName string
	// CLBs holds replacement configs for changed logic tiles, keyed (x, y).
	CLBs map[[2]int]*CLBConfig
	// Pads holds replacement pad entries (nil value = remove).
	Pads map[[3]int]*PadConfig
	// Routing marks the configurable edges whose state changes, indexed
	// like Bitstream.Routing; Apply flips them.
	Routing []uint64
	// Switches, OPins and IPins count the changed wire-wire switches,
	// output-pin connections and input-pin connections.
	Switches, OPins, IPins int
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool { return d.Size() == 0 }

// Size counts changed items (tiles + pads + connections).
func (d *Delta) Size() int {
	return len(d.CLBs) + len(d.Pads) + d.Switches + d.OPins + d.IPins
}

// archCompatible checks the fields the configuration layout depends on.
func archCompatible(x, y *arch.Arch) error {
	if x.Rows != y.Rows || x.Cols != y.Cols || x.IORate != y.IORate {
		return fmt.Errorf("bitstream: grids differ: %dx%d vs %dx%d", x.Cols, x.Rows, y.Cols, y.Rows)
	}
	if x.CLB != y.CLB {
		return fmt.Errorf("bitstream: CLB parameters differ")
	}
	if x.Routing != y.Routing {
		return fmt.Errorf("bitstream: routing parameters differ")
	}
	return nil
}

// Diff returns the delta that turns configuration a into configuration b.
// Both must target the same architecture, so their graphs number the
// configurable edges alike.
func Diff(a, b *Bitstream) (*Delta, error) {
	if err := archCompatible(a.Arch, b.Arch); err != nil {
		return nil, err
	}
	d := &Delta{
		ModelName: b.ModelName,
		CLBs:      make(map[[2]int]*CLBConfig),
		Pads:      make(map[[3]int]*PadConfig),
		Routing:   make([]uint64, len(a.Routing)),
	}
	for x := 1; x <= a.Arch.Cols; x++ {
		for y := 1; y <= a.Arch.Rows; y++ {
			ca, _ := a.CLBAt(x, y)
			cb, _ := b.CLBAt(x, y)
			if !reflect.DeepEqual(ca, cb) {
				d.CLBs[[2]int{x, y}] = cloneCLB(cb)
			}
		}
	}
	for key, pb := range b.Pads {
		if pa, ok := a.Pads[key]; !ok || *pa != *pb {
			cp := *pb
			d.Pads[key] = &cp
		}
	}
	for key := range a.Pads {
		if _, ok := b.Pads[key]; !ok {
			d.Pads[key] = nil
		}
	}
	for i := range d.Routing {
		d.Routing[i] = a.Routing[i] ^ b.Routing[i]
	}
	g := a.Graph
	enabledEdges(g, d.Routing, func(from, to int) {
		switch {
		case g.Type[from] == rrgraph.OPin:
			d.OPins++
		case g.Type[to] == rrgraph.IPin:
			d.IPins++
		default:
			d.Switches++
		}
	})
	return d, nil
}

// Apply patches the configuration in place with the delta. The routing
// part flips edges, so bs must hold the routing the delta was computed
// from.
func Apply(bs *Bitstream, d *Delta) error {
	if d.Routing != nil && len(d.Routing) != len(bs.Routing) {
		return fmt.Errorf("bitstream: delta routing frame has %d words, configuration %d", len(d.Routing), len(bs.Routing))
	}
	for key, cfg := range d.CLBs {
		if key[0] < 1 || key[0] > bs.Arch.Cols || key[1] < 1 || key[1] > bs.Arch.Rows {
			return fmt.Errorf("bitstream: delta tile (%d,%d) outside grid", key[0], key[1])
		}
		bs.CLBs[key[0]-1][key[1]-1] = cloneCLB(cfg)
	}
	for key, pad := range d.Pads {
		if pad == nil {
			delete(bs.Pads, key)
		} else {
			cp := *pad
			bs.Pads[key] = &cp
		}
	}
	for i, x := range d.Routing {
		bs.Routing[i] ^= x
	}
	if d.ModelName != "" {
		bs.ModelName = d.ModelName
	}
	return nil
}

// Clone deep-copies a bitstream.
func (bs *Bitstream) Clone() *Bitstream {
	out := newBitstream(bs.Arch, bs.Graph, bs.ModelName)
	for x := range bs.CLBs {
		for y := range bs.CLBs[x] {
			out.CLBs[x][y] = cloneCLB(bs.CLBs[x][y])
		}
	}
	for k, p := range bs.Pads {
		cp := *p
		out.Pads[k] = &cp
	}
	copy(out.Routing, bs.Routing)
	return out
}

func cloneCLB(c *CLBConfig) *CLBConfig {
	out := &CLBConfig{
		BLEs:         make([]BLEConfig, len(c.BLEs)),
		OutputSel:    append([]int(nil), c.OutputSel...),
		ClockEnabled: c.ClockEnabled,
	}
	for i, b := range c.BLEs {
		out.BLEs[i] = BLEConfig{
			LUT:          append([]bool(nil), b.LUT...),
			Registered:   b.Registered,
			Init:         b.Init,
			ClockEnabled: b.ClockEnabled,
			InputSel:     append([]int(nil), b.InputSel...),
		}
	}
	return out
}
