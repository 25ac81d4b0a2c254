package place

import (
	"fmt"
	"runtime"
	"sync"
)

// PlaceBest anneals nSeeds independent placements, at most opts.Workers
// at once (0 = GOMAXPROCS), and returns the one with the lowest cost.
// Seeds are derived deterministically from opts.Seed and the cheapest is
// picked in seed order, so the result is the same at every Workers value.
func PlaceBest(p *Problem, opts Options, nSeeds int) (*Placement, error) {
	if nSeeds < 1 {
		nSeeds = 1
	}
	opts.Obs.Add("place.seeds", int64(nSeeds))
	results := make([]*Placement, nSeeds)
	errs := make([]error, nSeeds)
	var wg sync.WaitGroup
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	for i := 0; i < nSeeds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			o := opts
			o.Seed = opts.Seed + int64(i)*7919 // distinct deterministic streams
			results[i], errs[i] = Place(p, o)
		}(i)
	}
	wg.Wait()
	var best *Placement
	var firstErr error
	for i := 0; i < nSeeds; i++ {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("place: seed %d: %w", i, errs[i])
			}
			continue
		}
		if best == nil || results[i].Cost < best.Cost {
			best = results[i]
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}
