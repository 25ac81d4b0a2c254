package check

import (
	"strconv"

	"fpgaflow/internal/netlist"
	"fpgaflow/internal/pack"
)

// Pack-stage rules: legality of the T-VPack clustering against the CLB
// architecture (N BLEs, I distinct inputs, one clock) and coverage of the
// mapped netlist. They are the only legality check of a packing: the
// checker recomputes everything from the raw cluster contents.

func hasPacking(a *Artifacts) bool { return a.Packing != nil }

func init() {
	register(Rule{
		ID:       "pack/cluster-size",
		Stage:    StagePack,
		Severity: Error,
		Doc:      "a cluster holds more BLEs than the architecture's cluster size N",
		Applies:  hasPacking,
		Run:      runClusterSize,
	})
	register(Rule{
		ID:       "pack/cluster-inputs",
		Stage:    StagePack,
		Severity: Error,
		Doc:      "a cluster's recomputed distinct external inputs exceed I, or its input list is stale",
		Applies:  hasPacking,
		Run:      runClusterInputs,
	})
	register(Rule{
		ID:       "pack/coverage",
		Stage:    StagePack,
		Severity: Error,
		Doc:      "a BLE appears in two clusters or in none, a cluster holds a BLE foreign to the packing, or a netlist LUT/latch is not covered by any BLE",
		Applies:  hasPacking,
		Run:      runCoverage,
	})
	register(Rule{
		ID:       "pack/clock",
		Stage:    StagePack,
		Severity: Error,
		Doc:      "a cluster mixes two clock domains (one clock net per CLB), or its stored clock disagrees with its BLEs'",
		Applies:  hasPacking,
		Run:      runClock,
	})
}

func runClusterSize(a *Artifacts, rep *reporter) {
	p := a.Packing
	for _, c := range p.Clusters {
		if len(c.BLEs) > p.Params.N {
			rep.add(clusterName(c), "%d BLEs exceed N=%d", len(c.BLEs), p.Params.N)
		}
	}
}

func runClusterInputs(a *Artifacts, rep *reporter) {
	p := a.Packing
	for _, c := range p.Clusters {
		want := p.ExternalInputsOf(c.BLEs)
		if len(want) > p.Params.I {
			rep.add(clusterName(c), "%d distinct external inputs exceed I=%d", len(want), p.Params.I)
		}
		if !sameStrings(want, c.Inputs) {
			rep.add(clusterName(c), "stored input list %v disagrees with recomputed %v", c.Inputs, want)
		}
	}
}

func runCoverage(a *Artifacts, rep *reporter) {
	p := a.Packing
	own := make(map[*pack.BLE]bool, len(p.BLEs))
	for _, b := range p.BLEs {
		own[b] = true
	}
	seen := map[*pack.BLE]*pack.Cluster{}
	for _, c := range p.Clusters {
		for _, b := range c.BLEs {
			if prev, dup := seen[b]; dup {
				rep.add(b.Name(), "BLE in clusters %s and %s", clusterName(prev), clusterName(c))
				continue
			}
			seen[b] = c
			if !own[b] {
				rep.add(b.Name(), "BLE in cluster %s is not one of the packing's BLEs", clusterName(c))
			}
		}
	}
	covered := map[string]bool{}
	for _, b := range p.BLEs {
		if _, clustered := seen[b]; !clustered {
			rep.add(b.Name(), "BLE not assigned to any cluster")
		}
		if b.LUT != nil {
			covered[b.LUT.Name] = true
		}
		if b.FF != nil {
			covered[b.FF.Name] = true
		}
	}
	for _, n := range p.Netlist.Nodes() {
		if n.Kind != netlist.KindInput && !covered[n.Name] {
			rep.add(n.Name, "netlist %s not covered by any BLE", n.Kind)
		}
	}
}

func runClock(a *Artifacts, rep *reporter) {
	for _, c := range a.Packing.Clusters {
		clock := ""
		for _, b := range c.BLEs {
			ck := b.Clock()
			if ck == "" {
				continue
			}
			if clock == "" {
				clock = ck
			} else if clock != ck {
				rep.add(clusterName(c), "mixes clocks %q and %q", clock, ck)
			}
		}
		if clock != c.Clock {
			rep.add(clusterName(c), "stored clock %q disagrees with its BLEs' clock %q", c.Clock, clock)
		}
	}
}

func clusterName(c *pack.Cluster) string {
	if c == nil {
		return "cluster?"
	}
	return "clb" + strconv.Itoa(c.ID)
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
