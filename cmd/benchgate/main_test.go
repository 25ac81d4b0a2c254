package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func gateReports() (*Report, *Report) {
	base := &Report{Designs: []DesignReport{{
		Name: "d", LUTs: 10, CLBs: 3, ChannelWidth: 4, BitstreamBits: 1000,
		Wirelength: 50, RoutedNets: 20, RouteHeapPops: 10000,
		CriticalPathPS: 5000, EnergyFJ: 2000,
	}}}
	cur := &Report{Designs: []DesignReport{base.Designs[0]}}
	return base, cur
}

func TestCompareGatesDelayAndEnergy(t *testing.T) {
	bd := bands{tol: 0.05, pops: 0.20, delay: 0.05, energy: 0.05}
	base, cur := gateReports()
	if err := compare(base, cur, bd); err != nil {
		t.Fatalf("identical reports failed: %v", err)
	}
	// A 10% critical-path regression must fail the 5% delay band even when
	// every structural metric is unchanged.
	cur.Designs[0].CriticalPathPS = 5500
	err := compare(base, cur, bd)
	if err == nil || !strings.Contains(err.Error(), "critical_path_ps") {
		t.Fatalf("delay regression not gated: %v", err)
	}
	// Same for energy.
	base, cur = gateReports()
	cur.Designs[0].EnergyFJ = 2300
	err = compare(base, cur, bd)
	if err == nil || !strings.Contains(err.Error(), "energy_fj") {
		t.Fatalf("energy regression not gated: %v", err)
	}
	// A loose band admits the same drift.
	if err := compare(base, cur, bands{tol: 0.05, pops: 0.20, delay: 0.05, energy: 0.20}); err != nil {
		t.Fatalf("energy drift inside its band rejected: %v", err)
	}
}

func TestMarkdownHasDelayAndEnergyColumns(t *testing.T) {
	bd := bands{tol: 0.05, pops: 0.20, delay: 0.05, energy: 0.05}
	base, cur := gateReports()
	cur.Designs[0].CriticalPathPS = 6000
	md := markdown(base, cur, bd, "bench_baseline.json")
	if !strings.Contains(md, "| crit ps |") || !strings.Contains(md, "| energy fJ |") {
		t.Fatalf("markdown missing delay/energy columns:\n%s", md)
	}
	if !strings.Contains(md, "5000 → 6000 ⚠️") {
		t.Fatalf("markdown does not flag the delay drift:\n%s", md)
	}
	if !strings.Contains(md, "❌") {
		t.Fatalf("markdown row not marked failing:\n%s", md)
	}
}

func TestCompareGatesTechmapAugmentations(t *testing.T) {
	bd := bands{tol: 0.05, pops: 0.20, delay: 0.05, energy: 0.05}
	base, cur := gateReports()
	base.Designs[0].TechmapAugmentations = 1000
	cur.Designs[0].TechmapAugmentations = 1100
	err := compare(base, cur, bd)
	if err == nil || !strings.Contains(err.Error(), "techmap_augmentations") {
		t.Fatalf("LUT-map effort drift not gated: %v", err)
	}
	if md := markdown(base, cur, bd, "bench_baseline.json"); !strings.Contains(md, "1000 → 1100 ⚠️") {
		t.Fatalf("markdown does not flag the augmentation drift:\n%s", md)
	}
}

func TestCompareGatesQMCombines(t *testing.T) {
	bd := bands{tol: 0.05, pops: 0.20, delay: 0.05, energy: 0.05}
	base, cur := gateReports()
	base.Designs[0].LogicQMCombines = 4000
	cur.Designs[0].LogicQMCombines = 4400
	err := compare(base, cur, bd)
	if err == nil || !strings.Contains(err.Error(), "logic_qm_combines") {
		t.Fatalf("SIS effort drift not gated: %v", err)
	}
	if md := markdown(base, cur, bd, "bench_baseline.json"); !strings.Contains(md, "4000 → 4400 ⚠️") {
		t.Fatalf("markdown does not flag the combine drift:\n%s", md)
	}
}

// TestBaselineOmitsWallTime checks a baseline record with its wall time
// zeroed (as -update writes it) carries no wall_ms field, while a report
// of a timed run still does.
func TestBaselineOmitsWallTime(t *testing.T) {
	base, _ := gateReports()
	b, err := json.Marshal(base.Designs[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "wall_ms") {
		t.Fatalf("zero wall time written: %s", b)
	}
	base.Designs[0].WallMS = 12.5
	if b, _ = json.Marshal(base.Designs[0]); !strings.Contains(string(b), `"wall_ms":12.5`) {
		t.Fatalf("run wall time dropped: %s", b)
	}
}
