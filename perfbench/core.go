package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/core"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/route"
)

// setups is how many times a timed run sets up; setup_s is their median.
const setups = 3

// overheadPairs is how many designs a traced run also compiles untraced,
// for bench.trace_overhead.
const overheadPairs = 10

// input is one compile of a core workload: a generated design and the
// flow seed it is placed with.
type input struct {
	d        *design
	flowSeed int64
}

// coreWorkload is a single-client workload over core.RunBLIF.
type coreWorkload struct {
	name string
	gen  func(seed int64) *design
	// anchors are generator seeds compiled on every workload seed (the
	// first is the committed example, which the warm-up compiles); seeded
	// designs are drawn from the workload seed on top of them.
	anchors []int64
	seeded  int
	// attempts is the number of flow attempts every compile must take.
	attempts int
	options  func() core.Options
	// guard checks that a compile still has the property the workload was
	// chosen for; a violation invalidates the run.
	guard func(res *core.Result, err error) error
}

var coreWorkloads = map[string]*coreWorkload{
	"deep-comb": {
		name:     "deep-comb",
		gen:      genRand128,
		anchors:  seedRange(128, 24),
		seeded:   2,
		attempts: 1,
		options: func() core.Options {
			// Paper architecture at its fixed W=16, one attempt.
			return core.Options{PlaceWorkers: workers, RouteWorkers: workers}
		},
		guard: func(res *core.Result, err error) error {
			if errors.Is(err, route.ErrUnroutable) {
				return fmt.Errorf("%w: deep-comb design no longer routes at W=16: %v", errInvalid, err)
			}
			if err == nil && res.Metrics.ChannelWidth != 16 {
				return fmt.Errorf("%w: deep-comb %s ended at W=%d, not 16", errInvalid, res.Metrics.Name, res.Metrics.ChannelWidth)
			}
			return nil
		},
	},
	"pipe-escalate": {
		name:     "pipe-escalate",
		gen:      genPipe48,
		anchors:  seedRange(48, 24),
		seeded:   2,
		attempts: 2,
		options: func() core.Options {
			// Paper architecture with the channel fixed at 8 tracks: the
			// first attempt fails as unroutable and the default policy
			// escalates to the minimum-width search.
			a := arch.Paper()
			a.Routing.ChannelWidth = 8
			return core.Options{Arch: a, AutoSizeGrid: true, Retry: core.DefaultRetryPolicy(),
				PlaceWorkers: workers, RouteWorkers: workers}
		},
		guard: func(res *core.Result, err error) error {
			if err == nil && res.Metrics.ChannelWidth <= 8 {
				return fmt.Errorf("%w: pipe-escalate %s routed at W=%d without escalating", errInvalid, res.Metrics.Name, res.Metrics.ChannelWidth)
			}
			return nil
		},
	},
}

func seedRange(first int64, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = first + int64(i)
	}
	return s
}

// inputs generates the workload's fixed input set for a workload seed:
// the anchor designs placed with flow seed 1, then the seeded designs with
// generator and flow seeds drawn from the workload seed.
func (w *coreWorkload) inputs(seed int64) []input {
	var in []input
	for _, s := range w.anchors {
		in = append(in, input{d: w.gen(s), flowSeed: 1})
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < w.seeded; i++ {
		// The offset keeps seeded generator seeds clear of the anchors.
		in = append(in, input{d: w.gen(1000 + rng.Int63n(1<<40)), flowSeed: 1 + rng.Int63n(1<<20)})
	}
	return in
}

// compile runs one input through the flow. It returns the result, whether
// it counts as good (no error, Verified, reference check passed) and the
// usage of the flow call alone; the reference check runs after the
// measurement.
func (w *coreWorkload) compile(in input, rec *recorder) (*core.Result, bool, delta, error) {
	opts := w.options()
	opts.Seed = in.flowSeed
	if rec != nil {
		opts.Obs = obs.New("compile " + in.d.name)
		opts.StageStart = rec.stageStart
		rec.beginCompile(in.d.name, -1)
	}
	u0 := now()
	res, err := core.RunBLIF(in.d.blif, opts)
	d := u0.to(now())
	if rec != nil {
		rec.endCompile(opts.Obs, res)
	}
	if gerr := w.guard(res, err); gerr != nil {
		return nil, false, d, gerr
	}
	if err != nil {
		warnf("compile %s failed: %v", in.d.name, err)
		return res, false, d, nil
	}
	if !res.Verified {
		warnf("compile %s: flow did not verify the bitstream", in.d.name)
		return res, false, d, nil
	}
	if rerr := checkReference(in.d, res.Encoded); rerr != nil {
		warnf("reference check failed: %v", rerr)
		return res, false, d, nil
	}
	return res, true, d, nil
}

// runCore runs a core workload: a timed run, or a traced one.
func runCore(w *coreWorkload, cfg config) (*result, error) {
	// A set-up generates the inputs and compiles the first one untimed;
	// its QoR seeds the determinism check of the timed compiles.
	type state struct {
		in   []input
		warm core.Metrics
	}
	setup := func() (state, error) {
		in := w.inputs(cfg.seed)
		res, ok, _, err := w.compile(in[0], nil)
		if err == nil && !ok {
			err = fmt.Errorf("warm-up compile of %s failed", in[0].d.name)
		}
		if err != nil {
			return state{}, err
		}
		return state{in, res.Metrics}, nil
	}
	if cfg.trace {
		st, err := setup()
		if err != nil {
			return nil, err
		}
		return traceCore(w, cfg, st.in)
	}
	st, setupS, err := medianSetup(setups, setup, func(state) {})
	if err != nil {
		return nil, err
	}
	in := st.in
	t := &timed{setupS: setupS}
	first := map[string]core.Metrics{}
	start := time.Now()
	// Whole passes over the input set, at least one, for at least
	// cfg.seconds.
	for i := 0; i < len(in) || i%len(in) != 0 || time.Since(start).Seconds() < cfg.seconds; i++ {
		x := in[i%len(in)]
		res, ok, d, err := w.compile(x, nil)
		if err != nil {
			return nil, err
		}
		t.attempted++
		t.latencies = append(t.latencies, d.wall.Seconds())
		t.busy.add(d)
		if !ok {
			continue
		}
		t.good++
		// Back-to-back compiles of one input must agree exactly.
		m := res.Metrics
		prev, seen := first[x.d.name]
		if i == 0 {
			prev, seen = st.warm, true
		}
		if seen && prev != m {
			return nil, fmt.Errorf("%s: QoR differs between two compiles of the same input", x.d.name)
		}
		if _, counted := first[x.d.name]; counted {
			continue
		}
		first[x.d.name] = m
		t.qor.add(m.LUTs, m.CLBs, m.ChannelWidth, m.WirelengthUsed, m.CriticalPath*1e9, m.EnergyPJ, m.BitstreamBits)
	}
	return t.result(), nil
}

// traceCore is the traced run of a core workload: every input compiled
// with the span recorder and an obs.Trace attached, the first
// overheadPairs of them each right after an untraced compile of the same
// input.
func traceCore(w *coreWorkload, cfg config, in []input) (*result, error) {
	var plain, traced []float64
	rec := newRecorder()
	good := 0
	for i, x := range in {
		if i < overheadPairs {
			_, _, d, err := w.compile(x, nil)
			if err != nil {
				return nil, err
			}
			plain = append(plain, d.wall.Seconds())
		}
		_, ok, d, err := w.compile(x, rec)
		if err != nil {
			return nil, err
		}
		if i < overheadPairs {
			traced = append(traced, d.wall.Seconds())
		}
		if ok {
			good++
		}
	}
	if err := rec.check(); err != nil {
		return nil, err
	}
	if err := w.traceGuard(rec); err != nil {
		return nil, err
	}
	m := rec.layerMetrics()
	addZeroJobs(m)
	m["bench.trace_overhead"] = metric{quantile(traced, 0.5)/quantile(plain, 0.5) - 1, "fraction"}
	if err := rec.write(cfg, m); err != nil {
		return nil, err
	}
	return &result{Correct: good == len(in), Attempted: len(in), Failed: len(in) - good, Metrics: m}, nil
}

// traceGuard checks the attempt count of every traced compile.
func (w *coreWorkload) traceGuard(rec *recorder) error {
	for _, c := range rec.compiles {
		if len(c.attempts) != w.attempts {
			return fmt.Errorf("%w: %s %s took %d attempts, want %d", errInvalid, w.name, c.name, len(c.attempts), w.attempts)
		}
	}
	return nil
}
