package check

import (
	"fpgaflow/internal/place"
)

// Place-stage rules: legality of a VPR placement against the grid — one
// location per block, no two blocks on one site, CLBs inside the logic
// array, pads on the I/O perimeter ring with valid sub-slots.

// hasPlacement reports a placement the per-block rules can read: one
// location per block. A present placement of another length is an error
// from place/shape, never a silent skip.
func hasPlacement(a *Artifacts) bool {
	return a.Problem != nil && a.Placement != nil && len(a.Placement.Loc) == len(a.Problem.Blocks)
}

// placementFits reports whether the placement holds one location per
// block, and reports it on the calling rule when it does not. The rules
// after the place stage that read the placement call it first, so a
// mis-sized placement is an error at their stage too instead of a skip or
// an out-of-range read.
func placementFits(a *Artifacts, rep *reporter) bool {
	if n, want := len(a.Placement.Loc), len(a.Problem.Blocks); n != want {
		rep.add("", "placement has %d locations for %d blocks", n, want)
		return false
	}
	return true
}

func init() {
	register(Rule{
		ID:       "place/shape",
		Stage:    StagePlace,
		Severity: Error,
		Doc:      "the placement does not hold exactly one location per block",
		Applies:  func(a *Artifacts) bool { return a.Problem != nil && a.Placement != nil },
		Run:      func(a *Artifacts, rep *reporter) { placementFits(a, rep) },
	})
	register(Rule{
		ID:       "place/overlap",
		Stage:    StagePlace,
		Severity: Error,
		Doc:      "two blocks occupy the same grid site and sub-slot",
		Applies:  hasPlacement,
		Run:      runOverlap,
	})
	register(Rule{
		ID:       "place/out-of-grid",
		Stage:    StagePlace,
		Severity: Error,
		Doc:      "a CLB sits outside the logic array or on a non-zero sub-slot",
		Applies:  hasPlacement,
		Run:      runOutOfGrid,
	})
	register(Rule{
		ID:       "place/io-perimeter",
		Stage:    StagePlace,
		Severity: Error,
		Doc:      "an I/O pad is off the perimeter ring or uses an out-of-range pad sub-slot",
		Applies:  hasPlacement,
		Run:      runIOPerimeter,
	})
}

func runOverlap(a *Artifacts, rep *reporter) {
	p, pl := a.Problem, a.Placement
	used := map[place.Location]int{}
	for _, b := range p.Blocks {
		l := pl.Loc[b.ID]
		if prev, dup := used[l]; dup {
			rep.add(b.Name, "shares site (%d,%d,%d) with block %q",
				l.X, l.Y, l.Sub, p.Blocks[prev].Name)
			continue
		}
		used[l] = b.ID
	}
}

func runOutOfGrid(a *Artifacts, rep *reporter) {
	p, pl := a.Problem, a.Placement
	ar := p.Arch
	for _, b := range p.Blocks {
		if b.Kind != place.BlockCLB {
			continue
		}
		l := pl.Loc[b.ID]
		if l.X < 1 || l.X > ar.Cols || l.Y < 1 || l.Y > ar.Rows {
			rep.add(b.Name, "CLB at (%d,%d) outside the %dx%d logic array", l.X, l.Y, ar.Cols, ar.Rows)
		} else if l.Sub != 0 {
			rep.add(b.Name, "CLB on sub-slot %d (logic sites have one slot)", l.Sub)
		}
	}
}

func runIOPerimeter(a *Artifacts, rep *reporter) {
	p, pl := a.Problem, a.Placement
	ar := p.Arch
	for _, b := range p.Blocks {
		if b.Kind == place.BlockCLB {
			continue
		}
		l := pl.Loc[b.ID]
		onX := l.X == 0 || l.X == ar.Cols+1
		onY := l.Y == 0 || l.Y == ar.Rows+1
		inGrid := l.X >= 0 && l.X <= ar.Cols+1 && l.Y >= 0 && l.Y <= ar.Rows+1
		if !inGrid || onX == onY {
			// onX == onY is a corner (both true) or an interior site (both
			// false); neither carries pads.
			rep.add(b.Name, "%s at (%d,%d) is not on the I/O perimeter ring", b.Kind, l.X, l.Y)
			continue
		}
		if l.Sub < 0 || l.Sub >= ar.IORate {
			rep.add(b.Name, "pad sub-slot %d outside [0,%d)", l.Sub, ar.IORate)
		}
	}
}
