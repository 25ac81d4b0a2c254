package route_test

// Property-based routing tests (external test package: the check engine
// imports route, so these live outside the package to avoid the cycle).
// Seeded-random netlists are packed, placed and routed, then the result is
// audited with the flow's own stage-boundary rules: the RR-graph audit
// (route/rr-*), per-net connectivity (route/connectivity) and the
// defect-aware route/dead-resource rule. Every random stream is explicitly
// seeded (rand.New(rand.NewSource(seed))), as the seededrand analyzer
// requires.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/check"
	"fpgaflow/internal/fault"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/obs/events"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
)

// randomBLIF builds a layered random combinational netlist: nIn primary
// inputs, layers×perLayer two-input gates with random non-constant truth
// tables, and collector outputs covering the last layer. Deterministic in
// seed.
func randomBLIF(seed int64, nIn, layers, perLayer, nOut int) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	fmt.Fprintf(&b, ".model rnd%d\n.inputs", seed)
	pool := make([]string, 0, nIn+layers*perLayer)
	for i := 0; i < nIn; i++ {
		s := fmt.Sprintf("i%d", i)
		pool = append(pool, s)
		b.WriteString(" " + s)
	}
	b.WriteString("\n.outputs")
	for i := 0; i < nOut; i++ {
		fmt.Fprintf(&b, " o%d", i)
	}
	b.WriteString("\n")
	gate := func(a, c, out string) {
		mask := 1 + rng.Intn(14) // non-constant 2-input truth table
		fmt.Fprintf(&b, ".names %s %s %s\n", a, c, out)
		for m := 0; m < 4; m++ {
			if mask&(1<<m) != 0 {
				fmt.Fprintf(&b, "%d%d 1\n", m>>1&1, m&1)
			}
		}
	}
	prev := pool
	for l := 0; l < layers; l++ {
		var cur []string
		for g := 0; g < perLayer; g++ {
			name := fmt.Sprintf("n%d_%d", l, g)
			a := prev[g%len(prev)] // cover the previous layer: no dead gates
			c := pool[rng.Intn(len(pool))]
			for c == a {
				c = pool[rng.Intn(len(pool))]
			}
			gate(a, c, name)
			cur = append(cur, name)
		}
		pool = append(pool, cur...)
		prev = cur
	}
	for i := 0; i < nOut; i++ {
		a := prev[(2*i)%len(prev)]
		c := prev[(2*i+1)%len(prev)]
		gate(a, c, fmt.Sprintf("o%d", i))
	}
	b.WriteString(".end\n")
	return b.String()
}

// placeRandom packs and places a random netlist on the paper architecture.
func placeRandom(t *testing.T, seed int64) (*place.Problem, *place.Placement) {
	t.Helper()
	_, p, pl := packPlaceRandom(t, seed)
	return p, pl
}

// packPlaceRandom is placeRandom keeping the packing (the timing-driven
// property suite needs it to recompute criticalities).
func packPlaceRandom(t *testing.T, seed int64) (*pack.Packing, *place.Problem, *place.Placement) {
	t.Helper()
	src := randomBLIF(seed, 6, 3, 6, 3)
	nl, err := netlist.ParseBLIF(src)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	a := arch.Paper()
	pk, err := pack.Pack(nl, pack.Params{N: a.CLB.N, K: a.CLB.K, I: a.CLB.I})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	p, err := place.NewProblem(a, pk)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	p.AutoSize()
	pl, err := place.Place(p, place.Options{Seed: seed, InnerNum: 1})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return pk, p, pl
}

// TestPropertyRandomNetlistsRouteClean routes a family of seeded-random
// netlists in parallel mode and audits every result with the route-stage
// check rules; it also asserts the worker-count invariance property on each
// instance (serial and parallel route trees must be identical).
func TestPropertyRandomNetlistsRouteClean(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p, pl := placeRandom(t, seed)
			g, err := rrgraph.Build(p.Arch)
			if err != nil {
				t.Fatal(err)
			}
			r, err := route.Route(p, pl, g, route.Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Success {
				t.Fatalf("unroutable: %d iterations, %d overused", r.Iterations, r.Overused)
			}
			rep := check.RunStage(check.StageRoute, &check.Artifacts{
				Graph: g, Routing: r, Problem: p, Placement: pl,
			})
			if rep.RulesRun == 0 {
				t.Fatal("no route-stage rules ran")
			}
			for _, d := range rep.Diags {
				if d.Severity == check.Error {
					t.Errorf("check %s: %s", d.Rule, d.Message)
				}
			}
			// Worker-count invariance on this instance.
			g2, err := rrgraph.Build(p.Arch)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := route.Route(p, pl, g2, route.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			j1, _ := json.Marshal(r1.Routes)
			jN, _ := json.Marshal(r.Routes)
			if string(j1) != string(jN) {
				t.Error("route trees differ between -j 1 and -j 4")
			}
		})
	}
}

// routesPerWidth subscribes to tr's event stream and counts the Route
// calls at each channel width (every call ends with one route_congestion
// event carrying its graph's width).
func routesPerWidth(tr *obs.Trace) map[int]int {
	perW := map[int]int{}
	bus := events.NewBus(0)
	bus.AddSink(func(ev events.Event) {
		if ev.Kind == events.KindRouteCongestion {
			perW[ev.RouteCongestion.Width]++
		}
	})
	tr.SetEvents(bus)
	return perW
}

// TestDefectMaskReappliedAtEscalatedWidthFromCache is the regression test
// for Options.Defects + Options.Cache: every channel-width trial of the
// binary search must resolve the defect map on its own graph, and no
// trial (or whole search) may change the shared graphs the cache serves
// later.
func TestDefectMaskReappliedAtEscalatedWidthFromCache(t *testing.T) {
	p, pl := placeRandom(t, 3)
	dm, err := fault.Generate(p.Arch, 7, fault.Rates{DeadWire: 0.08, DeadSwitch: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if dm.Count() == 0 {
		t.Fatal("defect map empty; raise rates")
	}
	cache := rrgraph.NewCache()
	tr := obs.New("masked")
	perW := routesPerWidth(tr)
	w1, r1, err := route.MinChannelWidth(p, pl, 1, p.Arch.Routing.ChannelWidth,
		route.Options{Cache: cache, Defects: dm, Obs: tr})
	if err != nil {
		t.Fatal(err)
	}
	trials := 0
	var wantDead, wantCut int64
	for w, n := range perW {
		trials += n
		a := p.Arch.Clone()
		a.Routing.ChannelWidth = w
		g, err := rrgraph.Build(a)
		if err != nil {
			t.Fatal(err)
		}
		ov := dm.Overlay(g)
		if ov.DeadNodes == 0 {
			t.Errorf("W=%d trial graph had no wire to mask", w)
		}
		wantDead += int64(n * ov.DeadNodes)
		wantCut += int64(n * ov.EdgesRemoved)
	}
	if trials < 2 {
		t.Fatalf("%d trials; the binary search must re-mask every trial", trials)
	}
	// Every trial masked exactly its own width's overlay.
	c := tr.Counters()
	if c["fault.rr_dead_nodes"] != wantDead || c["fault.rr_edges_removed"] != wantCut {
		t.Errorf("masked %d nodes / %d edges over %d trials, want %d / %d",
			c["fault.rr_dead_nodes"], c["fault.rr_edges_removed"], trials, wantDead, wantCut)
	}
	if r1.Defects == nil || r1.Defects.DeadNodes == 0 {
		t.Fatal("final trial routing lost its defect overlay")
	}
	// The routing must not use a defective resource (the flow's
	// route/dead-resource rule, here on a defect-carrying artifact set).
	rep := check.RunStage(check.StageRoute, &check.Artifacts{
		Graph: r1.Graph, Routing: r1, Problem: p, Placement: pl, Defects: dm,
	})
	for _, d := range rep.Diags {
		if d.Severity == check.Error {
			t.Errorf("masked search: check %s: %s", d.Rule, d.Message)
		}
	}

	// A second search from the SAME cache without defects must see pristine
	// graphs at every width — including the widths the masked search
	// already populated (cache hits).
	tr2 := obs.New("pristine")
	w2, r2, err := route.MinChannelWidth(p, pl, 1, p.Arch.Routing.ChannelWidth,
		route.Options{Cache: cache, Obs: tr2})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Defects != nil {
		t.Fatalf("defect overlay leaked into an unmasked search: %d dead nodes", r2.Defects.DeadNodes)
	}
	if hits := tr2.Counters()["rrgraph.cache_hits"]; hits == 0 {
		t.Fatal("second search never hit the cache")
	}
	fresh, err := rrgraph.Build(r1.Graph.Arch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Graph, fresh) {
		t.Error("the masked search modified the shared graph")
	}
	// Masking wires can only cost channel width, never gain it.
	if w1 < w2 {
		t.Errorf("masked min width %d < pristine min width %d", w1, w2)
	}
}

// TestMinChannelWidthRoutesEachWidthOnce: routing is deterministic, so a
// width the growth phase found unroutable must not be routed (or its graph
// requested) again by the binary search.
func TestMinChannelWidthRoutesEachWidthOnce(t *testing.T) {
	p, pl := placeRandom(t, 3)
	tr := obs.New("minw")
	perW := routesPerWidth(tr)
	w, _, err := route.MinChannelWidth(p, pl, 1, 1, route.Options{Cache: rrgraph.NewCache(), Obs: tr})
	if err != nil {
		t.Fatal(err)
	}
	if perW[1] == 0 || w < 3 {
		t.Fatalf("min width %d: the growth phase must fail at least twice for this test", w)
	}
	for width, n := range perW {
		if n != 1 {
			t.Errorf("W=%d routed %d times", width, n)
		}
	}
	c := tr.Counters()
	if c["rrgraph.cache_hits"] != 0 || c["rrgraph.cache_misses"] != int64(len(perW)) ||
		c["route.width_trials"] != int64(len(perW)) {
		t.Errorf("graph requests: %d hits, %d misses, %d trials for %d distinct widths",
			c["rrgraph.cache_hits"], c["rrgraph.cache_misses"], c["route.width_trials"], len(perW))
	}
}

// TestMinChannelWidthSkipsKnownFailedWidth: a width the caller already
// found unroutable (the flow's fixed-width route before it escalates) is
// a failed trial the search does not run again. The search must return
// the width and the routes it returns without that knowledge, in one
// trial fewer.
func TestMinChannelWidthSkipsKnownFailedWidth(t *testing.T) {
	p, pl := placeRandom(t, 3)
	search := func(failed ...int) (int, *route.Result, map[int]int, int64) {
		t.Helper()
		tr := obs.New("minw")
		perW := routesPerWidth(tr)
		w, r, err := route.MinChannelWidth(p, pl, 1, 1, route.Options{Cache: rrgraph.NewCache(), Obs: tr}, failed...)
		if err != nil {
			t.Fatal(err)
		}
		return w, r, perW, tr.Counters()["route.width_trials"]
	}
	w, r, perW, trials := search()
	if perW[1] != 1 || w < 2 {
		t.Fatalf("min width %d: W=1 must fail for this test", w)
	}
	kw, kr, kperW, ktrials := search(1)
	if kw != w {
		t.Errorf("min width %d with W=1 known failed, %d without", kw, w)
	}
	if !reflect.DeepEqual(kr.Routes, r.Routes) {
		t.Error("routes differ when W=1 is known to fail")
	}
	if kperW[1] != 0 {
		t.Errorf("known-failed W=1 routed %d times", kperW[1])
	}
	if ktrials != trials-1 {
		t.Errorf("%d width trials with W=1 known failed, want %d", ktrials, trials-1)
	}
}

// TestDefectiveRouteRejected: a route through a dead wire or a removed
// switch must fail the route/dead-resource rule, naming the kind of
// defect, even though the pristine graph has the node and the edge.
func TestDefectiveRouteRejected(t *testing.T) {
	p, pl := placeRandom(t, 1)
	g, err := rrgraph.Build(p.Arch)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.Route(p, pl, g, route.Options{})
	if err != nil || !r.Success {
		t.Fatalf("route failed: %v", err)
	}
	isWire := func(id int) bool { return g.Type[id].IsWire() }
	// The first wire and the first wire-wire switch any route uses.
	wire, hop := -1, [2]int{-1, -1}
	for _, nr := range r.Routes {
		for _, path := range nr.Paths {
			for i, id := range path {
				if wire < 0 && isWire(id) {
					wire = id
				}
				if hop[0] < 0 && i+1 < len(path) && isWire(id) && isWire(path[i+1]) {
					hop = [2]int{id, path[i+1]}
				}
			}
		}
	}
	if wire < 0 || hop[0] < 0 {
		t.Fatal("routing uses no wire-wire switch")
	}
	n := g.Node(wire)
	deadWire := &fault.DefectMap{DeadWires: []fault.WireRef{
		{Vertical: n.Type == rrgraph.ChanY, X: n.X, Y: n.Y, Track: n.Track}}}
	deadSwitch := &fault.DefectMap{}
	for x := 0; x <= p.Arch.Cols && len(deadSwitch.DeadSwitches) == 0; x++ {
		for y := 0; y <= p.Arch.Rows; y++ {
			track := int(g.Track[hop[0]])
			ids := g.SwitchPointWires(x, y, track)
			if slices.Contains(ids, hop[0]) && slices.Contains(ids, hop[1]) {
				deadSwitch.DeadSwitches = []fault.SwitchRef{{X: x, Y: y, Track: track}}
				break
			}
		}
	}
	if len(deadSwitch.DeadSwitches) == 0 {
		t.Fatalf("no switch point joins wires %d and %d", hop[0], hop[1])
	}
	for _, tc := range []struct {
		name string
		dm   *fault.DefectMap
		want string
	}{
		{"dead-wire", deadWire, "dead resource"},
		{"dead-switch", deadSwitch, "dead switch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r.Defects = tc.dm.Overlay(g)
			defer func() { r.Defects = nil }()
			if tc.name == "dead-switch" && r.Defects.DeadNodes != 0 {
				t.Fatal("a dead switch must not kill nodes")
			}
			rep := check.RunStage(check.StageRoute, &check.Artifacts{
				Graph: g, Routing: r, Problem: p, Placement: pl, Defects: tc.dm,
			})
			fired := false
			for _, d := range rep.Diags {
				fired = fired || d.Rule == "route/dead-resource" && strings.Contains(d.Message, tc.want)
			}
			if !fired {
				t.Errorf("route/dead-resource did not report a %q:\n%s", tc.want, rep.Format())
			}
		})
	}
	if err := legal(r, p, pl); err != nil {
		t.Errorf("pristine routing rejected: %v", err)
	}
}
