// Package fault is the flow's fault-injection harness: deterministic,
// seedable defect maps over the FPGA fabric (dead channel wires, dead
// switch points, defective CLB/IO sites, stuck LUT configuration bits) and
// corruption injectors for on-disk artifacts (bit flips, truncation,
// garbled text). Yu et al. ("FPGA with Improved Routability and Robustness
// in 130nm CMOS") treat routability under imperfect fabric as an
// architectural property; this package lets the reproduction's CAD stack be
// exercised — and regression-tested — against exactly that kind of fabric.
//
// A DefectMap is pure data (JSON-serializable, produced by cmd/faultgen or
// Generate) and is applied to concrete artifacts by the flow:
//
//   - place avoids sites in BadSiteSet (Options.Bad),
//   - route resolves the map to an Overlay of dead nodes and removed switch
//     edges on every graph it routes (route.Options.Defects, once per
//     channel-width trial); the shared graph itself is never modified,
//   - check verifies no configured resource lands on a defect
//     (place/defective-site, route/dead-resource, bitstream/stuck-bit).
//
// Everything is deterministic in (architecture, Seed), so a failing fabric
// is perfectly reproducible from its defect-map file or its generation seed.
package fault

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/rrgraph"
)

// WireRef identifies one channel wire segment by structural coordinates:
// the low tile coordinate of the segment (as built by rrgraph) and its
// track. The reference survives RR-graph rebuilds of the same architecture
// and stays meaningful when the channel width grows (new tracks are simply
// defect-free).
type WireRef struct {
	// Vertical selects a ChanY wire; false means ChanX.
	Vertical bool `json:"vertical"`
	X        int  `json:"x"`
	Y        int  `json:"y"`
	Track    int  `json:"track"`
}

// SwitchRef identifies one switch point of the disjoint switch box: every
// programmable wire-wire connection among the track's wires incident at
// (X, Y) is defective.
type SwitchRef struct {
	X     int `json:"x"`
	Y     int `json:"y"`
	Track int `json:"track"`
}

// SiteRef identifies a defective grid site; all of its sub-slots are
// unusable for placement.
type SiteRef struct {
	X int `json:"x"`
	Y int `json:"y"`
}

// StuckBit is one LUT configuration bit frozen at Value in the BLE at the
// given logic site. The site remains placeable; the bitstream stage
// verifies that the configured truth table agrees with the stuck value
// (and the flow runner re-seeds placement when it does not).
type StuckBit struct {
	X     int  `json:"x"`
	Y     int  `json:"y"`
	BLE   int  `json:"ble"`
	Bit   int  `json:"bit"`
	Value bool `json:"value"`
}

// DefectMap is a complete description of one imperfect fabric.
type DefectMap struct {
	// Seed reproduces the map through Generate; purely informational once
	// the defect lists are materialized.
	Seed int64 `json:"seed"`
	// Cols, Rows and ChannelWidth record the fabric the map was generated
	// for. Coordinates are absolute, so a map applies to any fabric of at
	// least this extent; out-of-range references are silently inert.
	Cols         int `json:"cols"`
	Rows         int `json:"rows"`
	ChannelWidth int `json:"channel_width"`

	DeadWires    []WireRef   `json:"dead_wires,omitempty"`
	DeadSwitches []SwitchRef `json:"dead_switches,omitempty"`
	BadCLBs      []SiteRef   `json:"bad_clbs,omitempty"`
	BadIOs       []SiteRef   `json:"bad_ios,omitempty"`
	StuckBits    []StuckBit  `json:"stuck_bits,omitempty"`
}

// Rates sets per-class defect probabilities for Generate, each in [0, 1]:
// the fraction of wires, switch points, logic sites, pad sites and LUT
// bits that are defective.
type Rates struct {
	DeadWire   float64
	DeadSwitch float64
	BadCLB     float64
	BadIO      float64
	StuckBit   float64
}

// zero reports whether no class has a positive rate.
func (r Rates) zero() bool {
	return r.DeadWire <= 0 && r.DeadSwitch <= 0 && r.BadCLB <= 0 && r.BadIO <= 0 && r.StuckBit <= 0
}

// Generate draws a defect map for the architecture: every structural
// element is kept or killed by an independent coin flip from a single
// seeded stream, so the map is a deterministic function of (a, seed, rates).
func Generate(a *arch.Arch, seed int64, rates Rates) (*DefectMap, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	dm := &DefectMap{Seed: seed, Cols: a.Cols, Rows: a.Rows, ChannelWidth: a.Routing.ChannelWidth}
	if rates.zero() {
		return dm, nil
	}
	rng := rand.New(rand.NewSource(seed))
	hit := func(rate float64) bool { return rate > 0 && rng.Float64() < rate }

	// Wires: enumerate the real segments by building the graph once, so the
	// references match rrgraph's staggered segment starts exactly.
	g, err := rrgraph.Build(a)
	if err != nil {
		return nil, err
	}
	for id, t := range g.Type {
		if !t.IsWire() {
			continue
		}
		if hit(rates.DeadWire) {
			dm.DeadWires = append(dm.DeadWires, WireRef{
				Vertical: t == rrgraph.ChanY, X: int(g.X[id]), Y: int(g.Y[id]), Track: int(g.Track[id]),
			})
		}
	}
	// Switch points: x in 0..Cols, y in 0..Rows, one per track.
	for x := 0; x <= a.Cols; x++ {
		for y := 0; y <= a.Rows; y++ {
			for t := 0; t < a.Routing.ChannelWidth; t++ {
				if hit(rates.DeadSwitch) {
					dm.DeadSwitches = append(dm.DeadSwitches, SwitchRef{X: x, Y: y, Track: t})
				}
			}
		}
	}
	// Logic sites.
	for x := 1; x <= a.Cols; x++ {
		for y := 1; y <= a.Rows; y++ {
			if hit(rates.BadCLB) {
				dm.BadCLBs = append(dm.BadCLBs, SiteRef{X: x, Y: y})
			}
		}
	}
	// Pad sites on the perimeter ring.
	for x := 0; x < a.Cols+2; x++ {
		for y := 0; y < a.Rows+2; y++ {
			onX := x == 0 || x == a.Cols+1
			onY := y == 0 || y == a.Rows+1
			if onX != onY && hit(rates.BadIO) {
				dm.BadIOs = append(dm.BadIOs, SiteRef{X: x, Y: y})
			}
		}
	}
	// Stuck LUT bits over healthy logic sites (a stuck bit on an already
	// dead site adds nothing).
	bad := make(map[SiteRef]bool, len(dm.BadCLBs))
	for _, s := range dm.BadCLBs {
		bad[s] = true
	}
	lutBits := 1 << uint(a.CLB.K)
	for x := 1; x <= a.Cols; x++ {
		for y := 1; y <= a.Rows; y++ {
			if bad[SiteRef{X: x, Y: y}] {
				continue
			}
			for b := 0; b < a.CLB.N; b++ {
				for bit := 0; bit < lutBits; bit++ {
					if hit(rates.StuckBit) {
						dm.StuckBits = append(dm.StuckBits, StuckBit{
							X: x, Y: y, BLE: b, Bit: bit, Value: rng.Intn(2) == 1,
						})
					}
				}
			}
		}
	}
	return dm, nil
}

// Count returns the total number of injected defects across all classes.
func (dm *DefectMap) Count() int {
	if dm == nil {
		return 0
	}
	return len(dm.DeadWires) + len(dm.DeadSwitches) + len(dm.BadCLBs) + len(dm.BadIOs) + len(dm.StuckBits)
}

// Summary renders per-class defect counts on one line.
func (dm *DefectMap) Summary() string {
	if dm == nil {
		return "no defects"
	}
	return fmt.Sprintf("%d defects (%d dead wires, %d dead switches, %d bad CLBs, %d bad IOs, %d stuck bits) on %dx%d W=%d",
		dm.Count(), len(dm.DeadWires), len(dm.DeadSwitches), len(dm.BadCLBs), len(dm.BadIOs), len(dm.StuckBits),
		dm.Cols, dm.Rows, dm.ChannelWidth)
}

// Overlay is a defect map resolved against one routing-resource graph:
// the nodes it kills and the switch edges it removes, as two bitsets. The
// graph itself is never modified, so one graph per architecture serves
// defective and pristine routings alike; a nil *Overlay is a pristine
// fabric. Dead nodes keep their IDs, so the bitstream's bit enumeration
// is unchanged.
type Overlay struct {
	// dead has bit n set when node n is dead; cut has bit k set when the
	// edge at index k of the graph's EdgeTo is a removed switch.
	dead, cut []uint64
	// DeadNodes and EdgesRemoved count the distinct nodes and directed
	// edges masked; out-of-range references are skipped, so they can be
	// lower than the map's totals.
	DeadNodes, EdgesRemoved int
}

func bit(set []uint64, i int) bool { return set[uint(i)/64]&(1<<(uint(i)%64)) != 0 }

// setBit sets bit i and reports whether it was clear.
func setBit(set []uint64, i int) bool {
	if bit(set, i) {
		return false
	}
	set[uint(i)/64] |= 1 << (uint(i) % 64)
	return true
}

// Overlay resolves the map on g: dead wires become dead nodes, and each
// dead switch point removes every wire-wire edge among its incident
// wires. Nil on a nil map.
func (dm *DefectMap) Overlay(g *rrgraph.Graph) *Overlay {
	if dm == nil {
		return nil
	}
	o := &Overlay{dead: make([]uint64, (g.NumNodes()+63)/64), cut: make([]uint64, (g.NumEdges()+63)/64)}
	for _, w := range dm.DeadWires {
		if id, ok := g.WireID(w.Vertical, w.X, w.Y, w.Track); ok && setBit(o.dead, id) {
			o.DeadNodes++
		}
	}
	for _, sw := range dm.DeadSwitches {
		ids := g.SwitchPointWires(sw.X, sw.Y, sw.Track)
		for _, from := range ids {
			for _, to := range ids {
				if from == to {
					continue
				}
				if k, ok := g.EdgeIndex(from, to); ok && setBit(o.cut, k) {
					o.EdgesRemoved++
				}
			}
		}
	}
	return o
}

// Dead reports whether node id is masked as defective.
func (o *Overlay) Dead(id int) bool { return o != nil && bit(o.dead, id) }

// Cut reports whether the edge at index k of the graph's EdgeTo is a
// removed switch.
func (o *Overlay) Cut(k int) bool { return o != nil && bit(o.cut, k) }

// Blocked reports whether a path may not take the edge at index k of the
// graph's EdgeTo, which leads to node to: the target is dead or the switch
// is removed. A nil overlay costs one nil check.
func (o *Overlay) Blocked(k, to int) bool {
	return o != nil && (bit(o.dead, to) || bit(o.cut, k))
}

// BadSiteSet returns the placement exclusion set: every defective CLB and
// IO site as (x, y) grid coordinates (the shape place.Options.Bad takes).
// Nil when the map holds no site defects.
func (dm *DefectMap) BadSiteSet() map[[2]int]bool {
	if dm == nil || (len(dm.BadCLBs) == 0 && len(dm.BadIOs) == 0) {
		return nil
	}
	set := make(map[[2]int]bool, len(dm.BadCLBs)+len(dm.BadIOs))
	for _, s := range dm.BadCLBs {
		set[[2]int{s.X, s.Y}] = true
	}
	for _, s := range dm.BadIOs {
		set[[2]int{s.X, s.Y}] = true
	}
	return set
}

// StuckBitsAt returns the stuck LUT bits recorded for logic site (x, y).
func (dm *DefectMap) StuckBitsAt(x, y int) []StuckBit {
	if dm == nil {
		return nil
	}
	var out []StuckBit
	for _, sb := range dm.StuckBits {
		if sb.X == x && sb.Y == y {
			out = append(out, sb)
		}
	}
	return out
}

// Marshal serializes the map as indented JSON.
func (dm *DefectMap) Marshal() ([]byte, error) {
	return json.MarshalIndent(dm, "", "  ")
}

// Unmarshal parses a defect map from JSON, validating coordinates are
// non-negative and rates of the referenced fabric make sense.
func Unmarshal(data []byte) (*DefectMap, error) {
	dm := &DefectMap{}
	if err := json.Unmarshal(data, dm); err != nil {
		return nil, fmt.Errorf("fault: defect map: %w", err)
	}
	if dm.Cols < 0 || dm.Rows < 0 || dm.ChannelWidth < 0 {
		return nil, fmt.Errorf("fault: defect map has negative fabric extent %dx%d W=%d",
			dm.Cols, dm.Rows, dm.ChannelWidth)
	}
	for _, w := range dm.DeadWires {
		if w.X < 0 || w.Y < 0 || w.Track < 0 {
			return nil, fmt.Errorf("fault: dead wire with negative coordinates %+v", w)
		}
	}
	for _, s := range dm.DeadSwitches {
		if s.X < 0 || s.Y < 0 || s.Track < 0 {
			return nil, fmt.Errorf("fault: dead switch with negative coordinates %+v", s)
		}
	}
	for _, sb := range dm.StuckBits {
		if sb.X < 0 || sb.Y < 0 || sb.BLE < 0 || sb.Bit < 0 {
			return nil, fmt.Errorf("fault: stuck bit with negative coordinates %+v", sb)
		}
	}
	return dm, nil
}

// Load reads a defect map file written by Save or cmd/faultgen.
func Load(path string) (*DefectMap, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}

// Save writes the map as JSON to path.
func (dm *DefectMap) Save(path string) error {
	data, err := dm.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
