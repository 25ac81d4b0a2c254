package place

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"fpgaflow/internal/obs/events"
)

// refPlace is the snapshot-evaluate/ordered-commit annealer that the
// serial move engine of Place replaced, kept verbatim as the reference:
// moves are proposed in batches against the state frozen at batch entry,
// their deltas are evaluated by up to Workers goroutines, and commits run
// in refProposal order, re-evaluating a refProposal that an earlier commit in
// its batch made stale.
func refPlace(p *Problem, opts Options) (*Placement, error) {
	if opts.InnerNum == 0 {
		opts.InnerNum = 10
	}
	a := p.Arch
	clbs, pads := p.CountKinds()
	rng := rand.New(rand.NewSource(opts.Seed))

	var clbSites, ioSites []site
	for x := 1; x <= a.Cols; x++ {
		for y := 1; y <= a.Rows; y++ {
			if opts.Bad[[2]int{x, y}] {
				continue // defective logic site
			}
			clbSites = append(clbSites, site{x, y, 0})
		}
	}
	for x := 0; x < a.Cols+2; x++ {
		for y := 0; y < a.Rows+2; y++ {
			onX := x == 0 || x == a.Cols+1
			onY := y == 0 || y == a.Rows+1
			if onX != onY {
				if opts.Bad[[2]int{x, y}] {
					continue // defective pad site
				}
				for s := 0; s < a.IORate; s++ {
					ioSites = append(ioSites, site{x, y, s})
				}
			}
		}
	}
	if clbs > len(clbSites) {
		return nil, fmt.Errorf("place: %d CLBs exceed %d usable sites (capacity %d, %d defective): %w",
			clbs, len(clbSites), a.LogicCapacity(), a.LogicCapacity()-len(clbSites), ErrNoSpace)
	}
	if pads > len(ioSites) {
		return nil, fmt.Errorf("place: %d pads exceed %d usable pad slots (capacity %d, %d defective): %w",
			pads, len(ioSites), a.IOCapacity(), a.IOCapacity()-len(ioSites), ErrNoSpace)
	}

	if opts.Weights != nil && len(opts.Weights) != len(p.Nets) {
		return nil, fmt.Errorf("place: %d weights for %d nets", len(opts.Weights), len(p.Nets))
	}
	pl := &Placement{Loc: make([]Location, len(p.Blocks)), weights: opts.Weights}
	// occupant maps a site to the block there (-1 empty), separate per class.
	occ := make(map[site]int, len(clbSites)+len(ioSites))
	for _, s := range clbSites {
		occ[s] = -1
	}
	for _, s := range ioSites {
		occ[s] = -1
	}
	// Fixed blocks claim their sites first, in sorted-name order: which
	// conflict is reported (and therefore the whole error path) must not
	// depend on map iteration order.
	fixed := make([]bool, len(p.Blocks))
	fixedNames := make([]string, 0, len(opts.Fixed))
	for name := range opts.Fixed {
		fixedNames = append(fixedNames, name)
	}
	sort.Strings(fixedNames)
	for _, name := range fixedNames {
		loc := opts.Fixed[name]
		id := p.BlockByName(name)
		if id < 0 {
			return nil, fmt.Errorf("place: fixed block %q does not exist", name)
		}
		s := site{loc.X, loc.Y, loc.Sub}
		prev, known := occ[s]
		if !known {
			return nil, fmt.Errorf("place: fixed block %q at illegal site %v", name, loc)
		}
		onX := loc.X == 0 || loc.X == a.Cols+1
		onY := loc.Y == 0 || loc.Y == a.Rows+1
		isIO := onX != onY
		if (p.Blocks[id].Kind == BlockCLB) == isIO {
			return nil, fmt.Errorf("place: fixed %s %q on incompatible site %v", p.Blocks[id].Kind, name, loc)
		}
		if prev >= 0 {
			return nil, fmt.Errorf("place: fixed blocks %q and %q share %v", p.Blocks[prev].Name, name, loc)
		}
		occ[s] = id
		pl.Loc[id] = loc
		fixed[id] = true
	}
	// Random initial placement for the rest.
	rng.Shuffle(len(clbSites), func(i, j int) { clbSites[i], clbSites[j] = clbSites[j], clbSites[i] })
	rng.Shuffle(len(ioSites), func(i, j int) { ioSites[i], ioSites[j] = ioSites[j], ioSites[i] })
	ci, ii := 0, 0
	for _, b := range p.Blocks {
		if fixed[b.ID] {
			continue
		}
		var s site
		if b.Kind == BlockCLB {
			for occ[clbSites[ci]] >= 0 {
				ci++
			}
			s = clbSites[ci]
			ci++
		} else {
			for occ[ioSites[ii]] >= 0 {
				ii++
			}
			s = ioSites[ii]
			ii++
		}
		occ[s] = b.ID
		pl.Loc[b.ID] = Location{s.x, s.y, s.sub}
	}

	cost := 0.0
	netCost := make([]float64, len(p.Nets))
	for i := range p.Nets {
		netCost[i] = p.netBBCost(pl, i)
		cost += netCost[i]
	}

	if opts.FixedSeedOnly || len(p.Nets) == 0 {
		pl.Cost = cost
		publishPlaceMap(p, pl, opts)
		return pl, nil
	}
	tempSteps := 0
	defer func() {
		opts.Obs.Add("place.moves", int64(pl.Moves))
		opts.Obs.Add("place.accepted", int64(pl.Accepted))
		opts.Obs.Add("place.temperature_steps", int64(tempSteps))
	}()

	// deltaFor computes the cost delta of moving block b to site s (swapping
	// with any occupant), without committing.
	siteOf := func(b int) site {
		l := pl.Loc[b]
		return site{l.X, l.Y, l.Sub}
	}
	// affectedNetsInto collects the nets touching b1 (and b2, when the move
	// is a swap) into dst, which is truncated and reused: refProposal slots keep
	// their nets buffers across batches so steady-state evaluation allocates
	// nothing.
	affectedNetsInto := func(dst []int, b1, b2 int) []int {
		dst = append(dst[:0], p.Blocks[b1].Nets...)
		if b2 >= 0 {
			for _, n := range p.Blocks[b2].Nets {
				dup := false
				for _, m := range dst {
					if m == n {
						dup = true
						break
					}
				}
				if !dup {
					dst = append(dst, n)
				}
			}
		}
		return dst
	}
	affectedNets := func(b1, b2 int) []int { return affectedNetsInto(nil, b1, b2) }
	apply := func(b int, s site) {
		occ[siteOf(b)] = -1
		occ[s] = b
		pl.Loc[b] = Location{s.x, s.y, s.sub}
	}

	// Initial temperature: 20 x stddev of cost over random trial moves (VPR).
	nBlocks := len(p.Blocks)
	trials := nBlocks
	if trials < 20 {
		trials = 20
	}
	var sum, sum2 float64
	for i := 0; i < trials; i++ {
		b := rng.Intn(nBlocks)
		if fixed[b] {
			continue
		}
		cands := clbSites
		if p.Blocks[b].Kind != BlockCLB {
			cands = ioSites
		}
		s := cands[rng.Intn(len(cands))]
		if other := occ[s]; other >= 0 && fixed[other] {
			continue
		}
		d := p.refTrialDelta(pl, occ, b, s, netCost, affectedNets, apply, siteOf, true, rng)
		sum += d
		sum2 += d * d
	}
	mean := sum / float64(trials)
	variance := sum2/float64(trials) - mean*mean
	if variance < 0 {
		variance = 0
	}
	temp := 20 * math.Sqrt(variance)
	if temp <= 0 {
		temp = 1
	}

	movesPerT := int(opts.InnerNum * math.Pow(float64(nBlocks), 4.0/3.0))
	if movesPerT < 16 {
		movesPerT = 16
	}
	rlim := float64(max(a.Cols, a.Rows) + 2)
	exitT := 0.005 * cost / float64(len(p.Nets))

	// Snapshot-evaluate / ordered-commit move engine. Proposals are drawn
	// serially from the main RNG against the state left by the previous
	// batch, cost deltas are evaluated concurrently (pure reads — nothing
	// mutates between generation and commit), and commits run serially in
	// refProposal order. A refProposal whose ingredients were touched by an
	// earlier commit in its own batch is re-evaluated against live state at
	// commit time, so the outcome is independent of worker scheduling: any
	// Workers value yields the bit-identical placement.
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batch := make([]refProposal, 0, refMoveBatchSize)
	// staleNets is the serial commit loop's scratch for re-evaluated
	// proposals; it grows once and is reused for the rest of the anneal.
	var staleNets []int
	// touched tracks blocks and nets modified by commits in the current
	// batch (epoch-stamped so clearing is O(1) per batch).
	touchedBlock := make([]uint32, nBlocks)
	touchedNet := make([]uint32, len(p.Nets))
	batchEpoch := uint32(0)
	commitSwap := func(b int, s site, other int, cur site) {
		occ[cur] = -1
		occ[s] = b
		pl.Loc[b] = Location{s.x, s.y, s.sub}
		if other >= 0 {
			occ[cur] = other
			pl.Loc[other] = Location{cur.x, cur.y, cur.sub}
		}
	}
	evalProposal := func(pr *refProposal) {
		pr.nets = affectedNetsInto(pr.nets, pr.b, pr.other)
		old := 0.0
		for _, n := range pr.nets {
			old += netCost[n]
		}
		newSum := 0.0
		l1 := Location{pr.s.x, pr.s.y, pr.s.sub}
		l2 := Location{pr.cur.x, pr.cur.y, pr.cur.sub}
		for _, n := range pr.nets {
			newSum += p.netBBCostAt(pl, n, pr.b, l1, pr.other, l2)
		}
		pr.delta = newSum - old
	}

	// stepHist times each temperature step (one observation per step, not
	// per move — the hot move loops stay untouched); nil Obs makes the
	// timers inert with no clock reads.
	stepHist := opts.Obs.Histogram("place.step_seconds")
	for temp > exitT {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("place: %w", err)
			}
		}
		stepTimer := stepHist.StartTimer()
		accepted := 0
		flush := func() {
			if len(batch) == 0 {
				return
			}
			// Parallel evaluation against the frozen state. Fan-out is capped
			// by the work available: spawning a goroutine costs more than
			// evaluating a handful of proposals, so each worker must have at
			// least refEvalChunkMin proposals to justify its startup (tiny
			// designs therefore evaluate serially — same result, see below).
			w := workers
			if most := len(batch) / refEvalChunkMin; w > most {
				w = most
			}
			if w <= 1 {
				for i := range batch {
					evalProposal(&batch[i])
				}
			} else {
				var wg sync.WaitGroup
				for k := 0; k < w; k++ {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						for i := k; i < len(batch); i += w {
							evalProposal(&batch[i])
						}
					}(k)
				}
				wg.Wait()
			}
			// Ordered commit. A commit that moves a block or re-costs a net
			// stales every later refProposal overlapping it; stale proposals are
			// re-evaluated (and re-validated) against live state.
			batchEpoch++
			//fpga:hotloop
			for i := range batch {
				pr := &batch[i]
				pl.Moves++
				stale := touchedBlock[pr.b] == batchEpoch ||
					(pr.other >= 0 && touchedBlock[pr.other] == batchEpoch) ||
					occ[pr.s] != pr.other || siteOf(pr.b) != pr.cur
				if !stale {
					for _, n := range pr.nets {
						if touchedNet[n] == batchEpoch {
							stale = true
							break
						}
					}
				}
				b, s, cur, other, nets, delta := pr.b, pr.s, pr.cur, pr.other, pr.nets, pr.delta
				if stale {
					cur = siteOf(b)
					other = occ[s]
					if s == cur || other == b || (other >= 0 && fixed[other]) {
						continue // degenerate or illegal after earlier commits
					}
					staleNets = affectedNetsInto(staleNets, b, other)
					nets = staleNets
					old := 0.0
					for _, n := range nets {
						old += netCost[n]
					}
					newSum := 0.0
					l1 := Location{s.x, s.y, s.sub}
					l2 := Location{cur.x, cur.y, cur.sub}
					for _, n := range nets {
						newSum += p.netBBCostAt(pl, n, b, l1, other, l2)
					}
					delta = newSum - old
				}
				if delta <= 0 || pr.u < math.Exp(-delta/temp) {
					commitSwap(b, s, other, cur)
					for _, n := range nets {
						netCost[n] = p.netBBCost(pl, n)
						touchedNet[n] = batchEpoch
					}
					touchedBlock[b] = batchEpoch
					if other >= 0 {
						touchedBlock[other] = batchEpoch
					}
					cost += delta
					accepted++
				}
			}
			batch = batch[:0]
		}
		//fpga:hotloop
		for m := 0; m < movesPerT; m++ {
			b := rng.Intn(nBlocks)
			if fixed[b] {
				continue
			}
			s, ok := p.randomSiteNear(pl, b, rlim, clbSites, ioSites, rng)
			if !ok {
				continue
			}
			cur := siteOf(b)
			if s == cur {
				continue
			}
			other := occ[s]
			if other >= 0 && fixed[other] {
				continue // never displace a pinned block
			}
			// Reuse the slot in place (cap is refMoveBatchSize and flush fires at
			// the cap) so each slot's nets buffer survives across batches.
			batch = batch[:len(batch)+1]
			pr := &batch[len(batch)-1]
			pr.b, pr.s, pr.cur, pr.other, pr.u = b, s, cur, other, rng.Float64()
			if len(batch) == refMoveBatchSize {
				flush()
			}
		}
		flush()
		pl.Accepted += accepted
		tempSteps++
		stepTimer.ObserveDuration()
		accRate := float64(accepted) / float64(movesPerT)
		stepTemp := temp
		// VPR adaptive schedule.
		var alpha float64
		switch {
		case accRate > 0.96:
			alpha = 0.5
		case accRate > 0.8:
			alpha = 0.9
		case accRate > 0.15:
			alpha = 0.95
		default:
			alpha = 0.8
		}
		temp *= alpha
		rlim *= 1 - 0.44 + accRate
		if rlim < 1 {
			rlim = 1
		}
		if m := float64(max(a.Cols, a.Rows) + 2); rlim > m {
			rlim = m
		}
		if opts.Obs.Events().Enabled() {
			opts.Obs.Publish(events.Event{Kind: events.KindPlaceStep, PlaceStep: &events.PlaceStep{
				Seed: opts.Seed, Step: tempSteps, Temperature: stepTemp, Cost: cost,
				AcceptRate: accRate, RangeLimit: rlim, Moves: movesPerT,
			}})
		}
	}

	// Recompute exactly to wash out float drift.
	cost = 0
	for i := range p.Nets {
		netCost[i] = p.netBBCost(pl, i)
		cost += netCost[i]
	}
	pl.Cost = cost
	publishPlaceMap(p, pl, opts)
	return pl, nil
}

// refProposal is one speculative annealer move: block b moves from cur to s,
// swapping with other (the occupant of s at refProposal time, -1 for an empty
// site). u is the move's Metropolis acceptance draw, taken from the main
// RNG at refProposal time so the random stream never depends on evaluation
// scheduling. nets and delta are filled by the parallel evaluation pass.
type refProposal struct {
	b, other int
	s, cur   site
	u        float64
	nets     []int
	delta    float64
}

// refMoveBatchSize proposals are generated before each parallel evaluation /
// ordered-commit round. Larger batches amortize goroutine fan-out but
// raise the share of proposals that go stale against an earlier commit in
// their own batch and need a serial re-evaluation.
const refMoveBatchSize = 56

// refEvalChunkMin is the minimum number of proposals per evaluation worker:
// below it, goroutine startup costs more than the evaluations themselves,
// so the fan-out is capped at len(batch)/refEvalChunkMin workers regardless
// of Options.Workers. The placement result is identical either way.
const refEvalChunkMin = 16

// refTrialDelta measures a move's delta then reverts it (used for the initial
// temperature estimate); commit selects whether to keep the move.
func (p *Problem) refTrialDelta(pl *Placement, occ map[site]int, b int, s site,
	netCost []float64, affectedNets func(int, int) []int, apply func(int, site), siteOf func(int) site,
	revert bool, rng *rand.Rand) float64 {
	cur := siteOf(b)
	if s == cur {
		return 0
	}
	other := occ[s]
	nets := affectedNets(b, other)
	old := 0.0
	for _, n := range nets {
		old += netCost[n]
	}
	if other >= 0 {
		apply(other, site{-3, -3, -3})
	}
	apply(b, s)
	if other >= 0 {
		apply(other, cur)
	}
	newSum := 0.0
	for _, n := range nets {
		newSum += p.netBBCost(pl, n)
	}
	if revert {
		if other >= 0 {
			apply(other, site{-4, -4, -4})
		}
		apply(b, cur)
		if other >= 0 {
			apply(other, s)
		}
	}
	return newSum - old
}
