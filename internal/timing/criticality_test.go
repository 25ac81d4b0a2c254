package timing

import (
	"math/rand"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
)

// TestCriticalityRangeAndMonotonicity is the property suite on the pure
// slack-to-criticality mapping: every output lies in [0,1], the mapping
// never increases with slack, zero slack is fully critical and slack >=
// dmax fully relaxed — for randomized (slack, dmax) pairs including
// out-of-range and degenerate inputs.
func TestCriticalityRangeAndMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		dmax := rng.Float64() * 1e-8
		s1 := (rng.Float64()*2 - 0.5) * dmax // includes negative and > dmax
		s2 := (rng.Float64()*2 - 0.5) * dmax
		c1, c2 := Criticality(s1, dmax), Criticality(s2, dmax)
		for _, c := range []float64{c1, c2} {
			if c < 0 || c > 1 {
				t.Fatalf("criticality %v out of [0,1] (slack %v dmax %v)", c, s1, dmax)
			}
		}
		if s1 < s2 && c1 < c2 {
			t.Fatalf("criticality not monotone: slack %v -> %v but crit %v -> %v", s1, s2, c1, c2)
		}
	}
	if c := Criticality(0, 1e-9); c != 1 {
		t.Errorf("zero slack => criticality %v, want 1", c)
	}
	if c := Criticality(2e-9, 1e-9); c != 0 {
		t.Errorf("slack beyond dmax => criticality %v, want 0", c)
	}
	if c := Criticality(1e-9, 0); c != 0 {
		t.Errorf("degenerate dmax => criticality %v, want 0", c)
	}
}

// compileRandom packs, places and routes a small seeded-random netlist on
// the paper architecture (the same layered generator shape the route
// property suite uses).
func compileRandom(t *testing.T, seed int64) (*pack.Packing, *place.Problem, *place.Placement, *route.Result) {
	t.Helper()
	src := randomLayeredBLIF(seed)
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
	g, err := rrgraph.Build(p.Arch)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.Route(p, pl, g, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Success {
		t.Fatalf("seed %d unroutable", seed)
	}
	return pk, p, pl, r
}

func randomLayeredBLIF(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	b := ".model crit\n.inputs a b c d\n.outputs x y\n"
	names := []string{"a", "b", "c", "d"}
	for l := 0; l < 4; l++ {
		for g := 0; g < 3; g++ {
			out := string(rune('e'+l*3+g)) + "w"
			in1 := names[len(names)-1-g%2]
			in2 := names[rng.Intn(len(names))]
			for in2 == in1 {
				in2 = names[rng.Intn(len(names))]
			}
			b += ".names " + in1 + " " + in2 + " " + out + "\n11 1\n00 1\n"
			names = append(names, out)
		}
	}
	b += ".names " + names[len(names)-1] + " " + names[len(names)-2] + " x\n10 1\n"
	b += ".names " + names[len(names)-3] + " " + names[0] + " y\n01 1\n"
	b += ".end\n"
	return b
}

// TestNetCriticalitiesProperties checks the analyzed criticality vector on
// random compiled designs: one value per net, all in [0,1], the critical
// path's driving nets fully critical, and every value consistent with the
// slack it was derived from (recomputing Criticality(SlackAt) reproduces
// the vector).
func TestNetCriticalitiesProperties(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		pk, p, pl, r := compileRandom(t, seed)
		an, err := Analyze(pk, p, pl, r)
		if err != nil {
			t.Fatal(err)
		}
		crit := NetCriticalities(an, p)
		if len(crit) != len(p.Nets) {
			t.Fatalf("seed %d: %d criticalities for %d nets", seed, len(crit), len(p.Nets))
		}
		maxC := 0.0
		for i, c := range crit {
			if c < 0 || c > 1 {
				t.Errorf("seed %d: net %s criticality %v out of [0,1]", seed, p.Nets[i].Signal, c)
			}
			if want := Criticality(an.SlackAt(p.Nets[i].Signal), an.CriticalPath); c != want {
				t.Errorf("seed %d: net %s criticality %v != Criticality(slack) %v", seed, p.Nets[i].Signal, c, want)
			}
			if c > maxC {
				maxC = c
			}
		}
		// Slack on the critical path must be ~zero: its signals' criticality 1.
		for _, sig := range an.CriticalNodes {
			if s := an.SlackAt(sig); s > 1e-12 {
				t.Errorf("seed %d: critical-path signal %s has slack %v", seed, sig, s)
			}
		}
		// Static estimate obeys the same range contract.
		for i, c := range place.StaticCriticalities(pk, p) {
			if c < 0 || c > 1 {
				t.Errorf("seed %d: static criticality[%d] = %v out of [0,1]", seed, i, c)
			}
		}
	}
}

// TestRequiredTimesNeverBelowArrivalMinusCritical asserts the backward
// pass invariant that slack is non-negative everywhere and bounded by the
// critical path.
func TestRequiredTimesNeverBelowArrivalMinusCritical(t *testing.T) {
	pk, p, pl, r := compileRandom(t, 7)
	an, err := Analyze(pk, p, pl, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.RequiredAt) == 0 {
		t.Fatal("backward pass produced no required times")
	}
	for sig := range an.ArrivalAt {
		s := an.SlackAt(sig)
		if s < 0 || s > an.CriticalPath {
			t.Errorf("signal %s slack %v outside [0, %v]", sig, s, an.CriticalPath)
		}
	}
}
