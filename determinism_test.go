package fpgaflow

// Worker-count invariance suite: the contract of the parallel router and
// of the multi-seed placer is that GOMAXPROCS and the -j worker knob
// change only wall-clock time, never the result. Each example is compiled
// under several (GOMAXPROCS, workers) configurations and the serialized
// route trees, placements, and encoded bitstreams must be byte-identical.
// The CI race job runs this file under -race, so the parallel search and
// the concurrent seed anneals are also exercised for data races.

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"fpgaflow/internal/obs"
)

func TestRoutingDeterminismAcrossWorkers(t *testing.T) {
	configs := []struct {
		gomaxprocs int
		workers    int // 0 = GOMAXPROCS (the -j default)
	}{
		{1, 0},
		{4, 0},
		{8, 0},
		{4, 1},
		{4, 8},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, src := range goldenExamples(t) {
		t.Run(name, func(t *testing.T) {
			var refTrees, refBits []byte
			for _, cfg := range configs {
				runtime.GOMAXPROCS(cfg.gomaxprocs)
				res, err := Run(src, Options{Seed: 1, SkipVerify: true, RouteWorkers: cfg.workers, PlaceWorkers: cfg.workers})
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d -j %d: %v", cfg.gomaxprocs, cfg.workers, err)
				}
				trees, err := json.Marshal(res.Routed.Routes)
				if err != nil {
					t.Fatal(err)
				}
				if refTrees == nil {
					refTrees, refBits = trees, res.Encoded
					continue
				}
				if !bytes.Equal(trees, refTrees) {
					t.Errorf("GOMAXPROCS=%d -j %d: route trees differ from GOMAXPROCS=1 run",
						cfg.gomaxprocs, cfg.workers)
				}
				if !bytes.Equal(res.Encoded, refBits) {
					t.Errorf("GOMAXPROCS=%d -j %d: bitstream differs from GOMAXPROCS=1 run",
						cfg.gomaxprocs, cfg.workers)
				}
			}
		})
	}
}

// TestRouteWorkersDeterminismMinDelay sweeps the router worker knob under
// the min-delay profile: the criticality-aware PathFinder recomputes
// per-net slack from the committed routing after every iteration, and that
// recompute must be a pure function of the (worker-count-independent)
// committed routes — so route trees and bitstreams stay byte-identical for
// -j 1/2/4/8 exactly as in the wirelength-driven mode.
func TestRouteWorkersDeterminismMinDelay(t *testing.T) {
	for name, src := range goldenExamples(t) {
		t.Run(name, func(t *testing.T) {
			var refTrees, refBits []byte
			for _, workers := range []int{1, 2, 4, 8} {
				res, err := Run(src, Options{Seed: 1, Profile: ProfileMinDelay, SkipVerify: true,
					RouteWorkers: workers, PlaceWorkers: 1})
				if err != nil {
					t.Fatalf("min-delay route workers=%d: %v", workers, err)
				}
				trees, err := json.Marshal(res.Routed.Routes)
				if err != nil {
					t.Fatal(err)
				}
				if refTrees == nil {
					refTrees, refBits = trees, res.Encoded
					continue
				}
				if !bytes.Equal(trees, refTrees) {
					t.Errorf("min-delay route workers=%d: route trees differ from workers=1 run", workers)
				}
				if !bytes.Equal(res.Encoded, refBits) {
					t.Errorf("min-delay route workers=%d: bitstream differs from workers=1 run", workers)
				}
			}
		})
	}
}

// TestPlaceWorkersDeterminismMinDelay sweeps the placement worker knob
// (how many of the two seeds anneal at once) under the min-delay profile
// (timing-driven placement weights active, routing pinned serial):
// bit-identical placements and bitstreams for every -j value.
func TestPlaceWorkersDeterminismMinDelay(t *testing.T) {
	for name, src := range goldenExamples(t) {
		t.Run(name, func(t *testing.T) {
			var refLoc, refBits []byte
			for _, workers := range []int{1, 2, 4, 8} {
				res, err := Run(src, Options{Seed: 1, Profile: ProfileMinDelay, SkipVerify: true,
					RouteWorkers: 1, PlaceSeeds: 2, PlaceWorkers: workers})
				if err != nil {
					t.Fatalf("min-delay place workers=%d: %v", workers, err)
				}
				loc, err := json.Marshal(res.Placed.Loc)
				if err != nil {
					t.Fatal(err)
				}
				if refLoc == nil {
					refLoc, refBits = loc, res.Encoded
					continue
				}
				if !bytes.Equal(loc, refLoc) {
					t.Errorf("min-delay place workers=%d: placement differs from workers=1 run", workers)
				}
				if !bytes.Equal(res.Encoded, refBits) {
					t.Errorf("min-delay place workers=%d: bitstream differs from workers=1 run", workers)
				}
			}
		})
	}
}

// sisEffort returns a run's deterministic SIS effort counters: logic
// optimization's QM work and LUT mapping's cut tests and augmenting paths.
func sisEffort(tr *obs.Trace) [5]int64 {
	c := tr.Counters()
	return [5]int64{c["logic.qm_minimizations"], c["logic.qm_combines"],
		c["techmap.cut_tests"], c["techmap.augmentations"], c["logic.qm_selected_primes"]}
}

// TestPlacementDeterminismAcrossWorkers sweeps the placement worker knob
// (how many of the two seeds anneal at once) in isolation (routing pinned
// serial) and requires the bit-identical placement and bitstream from
// every value on every golden design, with identical SIS and LUT-map
// effort counters.
func TestPlacementDeterminismAcrossWorkers(t *testing.T) {
	for name, src := range goldenExamples(t) {
		t.Run(name, func(t *testing.T) {
			var refLoc, refBits []byte
			var refEffort [5]int64
			for _, workers := range []int{1, 2, 4, 8} {
				tr := obs.New(name)
				res, err := Run(src, Options{Seed: 1, SkipVerify: true, RouteWorkers: 1, PlaceSeeds: 2, PlaceWorkers: workers, Obs: tr})
				if err != nil {
					t.Fatalf("place workers=%d: %v", workers, err)
				}
				loc, err := json.Marshal(res.Placed.Loc)
				if err != nil {
					t.Fatal(err)
				}
				effort := sisEffort(tr)
				if effort[0] == 0 || effort[2] == 0 || effort[3] == 0 || effort[4] == 0 {
					t.Fatalf("place workers=%d: effort counters missing: %v", workers, effort)
				}
				if refLoc == nil {
					refLoc, refBits, refEffort = loc, res.Encoded, effort
					continue
				}
				if effort != refEffort {
					t.Errorf("place workers=%d: effort (minimizations, combines, cut tests, augmentations, selected primes) %v, workers=1 run %v",
						workers, effort, refEffort)
				}
				if !bytes.Equal(loc, refLoc) {
					t.Errorf("place workers=%d: placement differs from workers=1 run", workers)
				}
				if !bytes.Equal(res.Encoded, refBits) {
					t.Errorf("place workers=%d: bitstream differs from workers=1 run", workers)
				}
			}
		})
	}
}

// TestGreedyMapperDeterminism requires two flows with the greedy LUT
// mapper to produce the same bitstream: its cone growth must not depend
// on map iteration order.
func TestGreedyMapperDeterminism(t *testing.T) {
	src := goldenExamples(t)["pipe48"]
	var ref []byte
	for run := 0; run < 2; run++ {
		res, err := Run(src, Options{Seed: 1, SkipVerify: true, Mapper: MapGreedy})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if ref == nil {
			ref = res.Encoded
		} else if !bytes.Equal(res.Encoded, ref) {
			t.Fatalf("run %d: greedy-mapped bitstream differs from run 0", run)
		}
	}
}
