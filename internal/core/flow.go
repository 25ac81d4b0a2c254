// Package core implements the paper's primary contribution: the integrated
// design framework that chains every tool of the flow (Fig. 11) from a VHDL
// description down to the FPGA configuration bitstream:
//
//	VHDL Parser -> DIVINER (synthesis) -> DRUID (EDIF normalization) ->
//	E2FMT (EDIF to BLIF) -> SIS (logic optimization, LUT mapping) ->
//	T-VPack (packing) -> DUTYS (architecture file) -> VPR (placement and
//	routing) -> PowerModel -> DAGGER (bitstream)
//
// Each stage can also be driven standalone through the cmd/ tools; this
// package provides the end-to-end orchestration, per-stage metrics, and the
// closing verification that extracts the netlist back out of the bitstream
// and checks functional equivalence against the elaborated source.
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/bitstream"
	"fpgaflow/internal/check"
	"fpgaflow/internal/edif"
	"fpgaflow/internal/fault"
	"fpgaflow/internal/logic"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/obs/events"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/power"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
	"fpgaflow/internal/sim"
	"fpgaflow/internal/techmap"
	"fpgaflow/internal/timing"
	"fpgaflow/internal/vhdl"
)

// MapperKind selects the LUT mapping algorithm.
type MapperKind int

const (
	// MapFlowMap is depth-optimal FlowMap (default).
	MapFlowMap MapperKind = iota
	// MapGreedy is the area-oriented greedy baseline.
	MapGreedy
)

// Options configures a flow run.
type Options struct {
	// Arch is the target platform; nil selects the paper architecture with
	// an auto-sized grid. A non-nil Arch keeps its grid exactly (placement
	// fails if the design does not fit) unless AutoSizeGrid is set.
	Arch *arch.Arch
	// AutoSizeGrid resizes a provided Arch's grid to fit the design.
	AutoSizeGrid bool
	// Top names the top VHDL entity ("" = auto).
	Top string
	// Mapper selects the LUT mapper.
	Mapper MapperKind
	// Seed drives placement and activity estimation.
	Seed int64
	// PlaceEffort scales annealing moves (VPR inner_num; default 1 for
	// speed, 10 for quality).
	PlaceEffort float64
	// RouteMaxIters bounds PathFinder iterations.
	RouteMaxIters int
	// MinChannelWidth binary-searches the smallest routable W instead of
	// using the architecture's fixed width (ProfileMinArea implies it).
	MinChannelWidth bool
	// Profile selects the QoR objective (timing, min-delay, min-energy,
	// min-area) every stage reads its mode from; see ParseProfile. The zero
	// value is the balanced wirelength-driven flow.
	Profile Profile
	// PlaceSeeds runs that many independent annealing seeds in parallel and
	// keeps the cheapest placement (0/1 = single seed).
	PlaceSeeds int
	// PlaceWorkers is the number of concurrent annealer move-evaluation
	// workers (the CLI -j knob): 0 uses GOMAXPROCS, 1 evaluates serially.
	// The placement is bit-identical for every value — see
	// place.Options.Workers.
	PlaceWorkers int
	// RouteWorkers is the number of concurrent net-routing workers inside
	// each PathFinder iteration (the CLI -j knob): 0 uses GOMAXPROCS, 1
	// routes serially. The routing result is identical for every value —
	// see route.Options.Workers.
	RouteWorkers int
	// RRCache, when set, memoizes routing-resource graphs across channel
	// width trials and flow attempts (keyed by the full architecture
	// fingerprint; defect masks are re-applied to a private clone per
	// trial). The hardened runner installs a shared cache automatically, so
	// this only needs setting to share a cache across independent runs.
	RRCache *rrgraph.Cache
	// FixedPads pins primary input pads ("a") and output pads ("out:a") to
	// grid locations, keeping the pinout stable across compilations.
	FixedPads map[string]place.Location
	// ClockHz is the power-estimation clock; 0 uses the maximum frequency
	// from timing analysis.
	ClockHz float64
	// ActivityCycles controls the simulation length for switching
	// activities (default 500).
	ActivityCycles int
	// SkipVerify disables the closing bitstream-extraction equivalence
	// check (it is the most expensive step on large designs).
	SkipVerify bool
	// SkipChecks disables the stage-boundary static verification
	// (internal/check) that otherwise runs after every stage and fails
	// fast on error-severity diagnostics.
	SkipChecks bool
	// DisableChecks suppresses individual check rules by ID
	// (see docs/CHECKS.md for the rule list and suppression policy).
	DisableChecks []string
	// Defects injects an imperfect fabric (see internal/fault): placement
	// avoids defective sites, routing masks dead wires and switches
	// (re-applied at every channel-width escalation), and the stage-boundary
	// checks verify no configured resource lands on a defect. Injection
	// totals are reported on fault.* counters.
	Defects *fault.DefectMap
	// StageTimeout bounds each stage's wall time (0 = unbounded). A stage
	// that overruns fails with a StageError wrapping
	// context.DeadlineExceeded; placement and routing cancel cooperatively,
	// other stages are abandoned after a short grace period.
	StageTimeout time.Duration
	// Retry configures the hardened runner: re-seeded attempts, channel
	// width escalation and backoff (see RetryPolicy). Zero value = one
	// attempt, no degradation.
	Retry RetryPolicy
	// StageStart, when set, is invoked at the entry of every stage with the
	// tool name (GUI progress reporting; fault-injection tests use it to
	// simulate stuck or crashing stages).
	StageStart func(stage string)
	// Obs receives per-stage spans and stage-specific counters for the run
	// (nil disables reporting). The event bus attached to it
	// (Trace.SetEvents) receives the iteration-level telemetry stream:
	// stage boundaries, hardened-runner decisions (attempts, retries,
	// escalations), one event per annealing temperature step and per
	// PathFinder iteration, the QoR record, and the final fabric
	// occupancy/congestion maps the heatmap artifact derives from.
	Obs *obs.Trace
}

func (o *Options) fill() {
	if profiles[o.Profile].minW {
		o.MinChannelWidth = true
	}
	if o.PlaceEffort == 0 {
		o.PlaceEffort = 1
	}
	if o.ActivityCycles == 0 {
		o.ActivityCycles = 500
	}
}

// Stage records one tool invocation. Duration is the stage's own wall
// time, measured by its observability span (every stage records its own
// timing; nothing is stamped at flow end).
type Stage struct {
	Tool     string
	Detail   string
	Duration time.Duration
	// CPU is the process CPU time consumed during the stage (may exceed
	// Duration for parallel stages); zero when unavailable.
	CPU time.Duration
	// AllocBytes is the heap allocated during the stage
	// (runtime.MemStats.TotalAlloc delta).
	AllocBytes uint64
}

// Result is the complete output of a flow run.
type Result struct {
	// Stages records each stage the run entered, once and in flow order: a
	// retry's re-run stages replace the earlier attempt's records.
	Stages []Stage

	// tr is the observability trace for this run (possibly nil).
	tr *obs.Trace

	// Source is the elaborated (pre-optimization) netlist, the reference
	// for all equivalence checks.
	Source *netlist.Netlist
	// EDIF is the DIVINER output after DRUID normalization.
	EDIF string
	// OptimizedBLIF is the netlist after the SIS stage.
	OptimizedBLIF string
	// Mapped is the K-LUT network.
	Mapped *techmap.Result
	// ArchFile is the DUTYS architecture description used.
	ArchFile string
	Arch     *arch.Arch
	Packing  *pack.Packing
	Problem  *place.Problem
	Placed   *place.Placement
	Routed   *route.Result
	Timing   *timing.Analysis
	Power    *power.Report
	Bits     *bitstream.Bitstream
	// Encoded is the binary bitstream.
	Encoded []byte
	// Verified is true when the bitstream extraction matched the source.
	Verified bool

	Metrics Metrics
}

// Metrics summarizes the run for tables.
type Metrics struct {
	Name           string
	SourceGates    int
	LUTs           int
	Depth          int
	CLBs           int
	GridW, GridH   int
	ChannelWidth   int
	WirelengthUsed int
	CriticalPath   float64
	MaxClockMHz    float64
	DataRateMbps   float64
	PowerTotalMW   float64
	// EnergyPJ is the energy per clock cycle in picojoules: total power at
	// the power-model clock divided by that clock. The min-energy profile
	// and benchgate's -energy-tol gate optimize and police this number.
	EnergyPJ      float64
	BitstreamBits int
	Utilization   float64
	// AreaUnits is the fabric area in minimum-width transistor areas
	// (the VPR area model over the sized grid).
	AreaUnits float64
}

// RunVHDL executes the full flow on VHDL source.
func RunVHDL(src string, opts Options) (*Result, error) {
	return RunVHDLContext(context.Background(), src, opts)
}

// RunVHDLContext executes the full flow on VHDL source under a context:
// cancellation and deadlines propagate into every stage, stage panics come
// back as structured *StageError values, and the options' RetryPolicy
// governs re-seeded attempts and graceful degradation.
func RunVHDLContext(ctx context.Context, src string, opts Options) (*Result, error) {
	f := &flow{src: src}
	return runRetry(ctx, opts, f.attempt)
}

// RunBLIF enters the flow at the SIS stage with a BLIF netlist.
func RunBLIF(blifText string, opts Options) (*Result, error) {
	return RunBLIFContext(context.Background(), blifText, opts)
}

// RunBLIFContext is RunBLIF under a context and the hardened runner (see
// RunVHDLContext).
func RunBLIFContext(ctx context.Context, blifText string, opts Options) (*Result, error) {
	f := &flow{blif: blifText, entry: stageIndex("SIS")}
	return runRetry(ctx, opts, f.attempt)
}

// step is one tool of the flow. run does the tool's work on the flow state
// and returns the one-line report recorded as the stage's Detail.
type step struct {
	name string
	// seeded marks the stages whose outcome depends on the placement seed;
	// failures there are worth retrying re-seeded. Everything upstream
	// (parsing, synthesis, mapping, packing) is deterministic in the input
	// alone.
	seeded bool
	run    func(*flow, context.Context) (string, error)
}

// stages is the flow of Fig. 11 in execution order, closed by timing
// analysis (which feeds the power model's default clock) and the
// bitstream-extraction verification.
var stages = []step{
	{name: "VHDL Parser", run: (*flow).parseVHDL},
	{name: "DIVINER", run: (*flow).diviner},
	{name: "DRUID", run: (*flow).druid},
	{name: "E2FMT", run: (*flow).e2fmt},
	{name: "SIS", run: (*flow).sis},
	{name: "LUT map", run: (*flow).lutMap},
	{name: "T-VPack", run: (*flow).tvpack},
	{name: "DUTYS", run: (*flow).dutys},
	{name: "VPR place", seeded: true, run: (*flow).vprPlace},
	{name: "VPR route", seeded: true, run: (*flow).vprRoute},
	{name: "Timing", seeded: true, run: (*flow).staticTiming},
	{name: "PowerModel", seeded: true, run: (*flow).powerModel},
	{name: "DAGGER", seeded: true, run: (*flow).dagger},
	{name: "Verify", seeded: true, run: (*flow).verify},
}

// stageIndex returns the table position of the named stage (-1 if none).
func stageIndex(name string) int {
	for i, s := range stages {
		if s.name == name {
			return i
		}
	}
	return -1
}

// flow is one run through the stage table: the result being built, the
// current attempt's options and the state handed from stage to stage.
type flow struct {
	*Result
	opts  Options
	entry int // first stage: VHDL Parser, or SIS on the BLIF entry

	src     string           // VHDL source
	design  *vhdl.Design     // VHDL Parser output
	blif    string           // E2FMT output, or the BLIF entry's input
	working *netlist.Netlist // SIS output, the LUT mapper's input
	width   int              // Arch's channel width before any route stage widened it

	// saved[i] is the result as stage i last found it on entry; a retry
	// resuming at stage i restores it, so re-run stages replace their
	// records and artifacts instead of appending to them.
	saved []Result
}

// attempt runs the flow under o: from the entry stage on the first attempt
// (from == ""), otherwise resuming at stage from with the result and
// architecture restored to exactly what a fresh attempt would hand that
// stage. The runner only resumes at or before the stage that failed:
// escalation follows an unroutable VPR route, re-seeding a seeded stage.
func (f *flow) attempt(ctx context.Context, o Options, from string) (*Result, error) {
	f.opts = o
	if from == "" {
		if err := f.start(); err != nil {
			return f.Result, err
		}
		return f.Result, f.run(ctx, f.entry)
	}
	i := stageIndex(from)
	*f.Result = f.saved[i]
	f.Arch.Routing.ChannelWidth = f.width
	return f.Result, f.run(ctx, i)
}

// start sets up the run's result, architecture and defect counters (once
// per run, however many attempts follow) and, on the BLIF entry, lints and
// parses the input.
func (f *flow) start() error {
	f.Result, f.saved = &Result{tr: f.opts.Obs}, make([]Result, len(stages))
	a := f.opts.Arch
	if a == nil {
		a = arch.Paper()
	}
	f.Arch = a.Clone()
	f.width = f.Arch.Routing.ChannelWidth
	f.tr.Counter("fault.injected")
	if dm := f.opts.Defects; dm != nil {
		f.tr.Add("fault.injected", int64(dm.Count()))
		f.tr.Add("fault.dead_wires", int64(len(dm.DeadWires)))
		f.tr.Add("fault.dead_switches", int64(len(dm.DeadSwitches)))
		f.tr.Add("fault.bad_sites", int64(len(dm.BadCLBs)+len(dm.BadIOs)))
		f.tr.Add("fault.stuck_bits", int64(len(dm.StuckBits)))
	}
	if f.entry == 0 {
		return nil
	}
	// Text-level lint runs before the parser so a multi-driven net surfaces
	// as a named rule violation, not a parse error. Failures here are typed
	// StageErrors like every other flow failure (corrupted input must fail
	// fast, not crash or propagate shapeless).
	if err := f.runChecks(check.StageNetlist, &check.Artifacts{BLIF: f.blif}); err != nil {
		return &StageError{Stage: "BLIF", Err: err}
	}
	nl, err := netlist.ParseBLIF(f.blif)
	if err != nil {
		return &StageError{Stage: "BLIF", Err: err}
	}
	f.Source = nl
	return nil
}

// run drives the stage table from stage i to the end.
func (f *flow) run(ctx context.Context, i int) error {
	for ; i < len(stages); i++ {
		if stages[i].name == "Verify" && f.opts.SkipVerify {
			break
		}
		f.saved[i] = *f.Result
		if err := f.stage(ctx, stages[i]); err != nil {
			return err
		}
	}
	return nil
}

func (f *flow) parseVHDL(context.Context) (string, error) {
	var err error
	f.design, err = vhdl.Parse(f.src)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d entities", len(f.design.Entities)), nil
}

func (f *flow) diviner(context.Context) (string, error) {
	nl, err := vhdl.Elaborate(f.design, f.opts.Top)
	if err != nil {
		return "", err
	}
	f.Source = nl
	st := nl.Stats()
	f.tr.Add("synth.gates", int64(st.Logic))
	f.tr.Add("synth.ffs", int64(st.Latches))
	return fmt.Sprintf("%d gates, %d FFs", st.Logic, st.Latches), nil
}

// druid writes the elaborated netlist as EDIF and normalizes it.
func (f *flow) druid(context.Context) (string, error) {
	text, err := edif.Write(f.Source)
	if err != nil {
		return "", err
	}
	f.EDIF, err = edif.Druid(text)
	return "", err
}

func (f *flow) e2fmt(context.Context) (string, error) {
	var err error
	f.blif, err = edif.E2FMT(f.EDIF)
	if err != nil {
		return "", err
	}
	// Lint the produced BLIF at the stage boundary: a multi-driven net
	// here is an E2FMT bug, not a SIS one.
	return "", f.runChecks(check.StageNetlist, &check.Artifacts{BLIF: f.blif})
}

// sis is technology-independent optimization plus decomposition; the LUT
// mapping half of SIS is the next stage.
func (f *flow) sis(context.Context) (string, error) {
	f.Metrics.Name, f.Metrics.SourceGates = f.Source.Name, f.Source.Stats().Logic
	nl, err := netlist.ParseBLIF(f.blif)
	if err != nil {
		return "", err
	}
	effort, err := logic.Optimize(nl)
	if err != nil {
		return "", err
	}
	f.tr.Add("logic.qm_minimizations", effort.Minimizations)
	f.tr.Add("logic.qm_combines", effort.Combines)
	if err := logic.Decompose(nl); err != nil {
		return "", err
	}
	f.working = nl
	f.OptimizedBLIF = netlist.FormatBLIF(nl)
	return fmt.Sprintf("%d gates after optimization", nl.Stats().Logic),
		f.runChecks(check.StageNetlist, &check.Artifacts{Netlist: nl})
}

func (f *flow) lutMap(context.Context) (string, error) {
	k := f.Arch.CLB.K
	var mapped *techmap.Result
	var err error
	if f.opts.Mapper == MapGreedy {
		mapped, err = techmap.MapGreedy(f.working, k)
	} else {
		mapped, err = techmap.FlowMap(f.working, k)
	}
	if err != nil {
		return "", err
	}
	f.Mapped = mapped
	f.Metrics.LUTs, f.Metrics.Depth = mapped.LUTs, mapped.Depth
	f.tr.Add("flow.luts", int64(mapped.LUTs))
	f.tr.SetGauge("lutmap.depth", float64(mapped.Depth))
	return fmt.Sprintf("%d LUTs, depth %d", mapped.LUTs, mapped.Depth),
		f.runChecks(check.StageNetlist, &check.Artifacts{Netlist: mapped.Netlist, K: k})
}

func (f *flow) tvpack(context.Context) (string, error) {
	c := f.Arch.CLB
	pk, err := pack.Pack(f.Mapped.Netlist, pack.Params{
		N: c.N, K: c.K, I: c.I, GroupGated: profiles[f.opts.Profile].gatedPack})
	if err != nil {
		return "", err
	}
	f.Packing = pk
	pk.Record(f.tr)
	f.Metrics.CLBs, f.Metrics.Utilization = len(pk.Clusters), pk.Utilization()
	f.tr.Add("flow.clbs", int64(len(pk.Clusters)))
	detail := fmt.Sprintf("%d CLBs, %.0f%% BLE utilization", len(pk.Clusters), 100*pk.Utilization())
	if profiles[f.opts.Profile].gatedPack {
		detail += fmt.Sprintf(", %d clocked", pk.ClockedClusters())
	}
	return detail, f.runChecks(check.StagePack, &check.Artifacts{Packing: pk})
}

// dutys sizes the grid and writes the architecture file.
func (f *flow) dutys(context.Context) (string, error) {
	a := f.Arch
	p, err := place.NewProblem(a, f.Packing)
	if err != nil {
		return "", err
	}
	if f.opts.Arch == nil || f.opts.AutoSizeGrid {
		p.AutoSize()
	} else if clbs, pads := p.CountKinds(); clbs > a.LogicCapacity() || pads > a.IOCapacity() {
		return "", fmt.Errorf("core: design needs %d CLBs / %d pads; fixed %dx%d grid offers %d / %d",
			clbs, pads, a.Cols, a.Rows, a.LogicCapacity(), a.IOCapacity())
	}
	f.Problem = p
	f.ArchFile = arch.Format(a)
	f.Metrics.GridW, f.Metrics.GridH = a.Cols, a.Rows
	return fmt.Sprintf("%dx%d grid", a.Cols, a.Rows), nil
}

func (f *flow) vprPlace(sctx context.Context) (string, error) {
	opts := &f.opts
	popts := place.Options{Seed: opts.Seed, InnerNum: opts.PlaceEffort, Fixed: opts.FixedPads, Obs: f.tr,
		Ctx: sctx, Bad: opts.Defects.BadSiteSet(), Workers: opts.PlaceWorkers}
	mode := "wirelength-driven"
	if profiles[opts.Profile].timingPlace {
		// alpha 8: critical nets weigh up to 9x a relaxed net.
		popts.Weights = place.CriticalityWeights(f.Packing, f.Problem, 8)
		mode = "timing-driven"
	}
	var pl *place.Placement
	var err error
	if opts.PlaceSeeds > 1 {
		pl, err = place.PlaceBest(f.Problem, popts, opts.PlaceSeeds)
		mode = fmt.Sprintf("%s, best of %d seeds", mode, opts.PlaceSeeds)
	} else {
		pl, err = place.Place(f.Problem, popts)
	}
	if err != nil {
		return "", err
	}
	f.Placed = pl
	return fmt.Sprintf("cost %.1f (%s)", pl.Cost, mode),
		f.runChecks(check.StagePlace, &check.Artifacts{Problem: f.Problem, Placement: pl})
}

func (f *flow) vprRoute(sctx context.Context) (string, error) {
	opts, a := &f.opts, f.Arch
	ropts := route.Options{MaxIters: opts.RouteMaxIters, Base: profiles[opts.Profile].routeBase, Obs: f.tr,
		Ctx: sctx, Workers: opts.RouteWorkers, Cache: opts.RRCache}
	if profiles[opts.Profile].critRoute {
		pk, p, pl := f.Packing, f.Problem, f.Placed
		ropts.Criticality = func(g *rrgraph.Graph, routes []*route.NetRoute) []float64 {
			if routes == nil {
				// First iteration: no routed delays yet; seed with the
				// combinational-depth estimate.
				return timing.StaticNetCriticalities(pk, p)
			}
			nc, err := timing.AnalyzeNetCriticalities(pk, p, pl, &route.Result{Routes: routes, Graph: g})
			if err != nil {
				return nil // keep last criticalities on a mid-route analysis failure
			}
			return nc
		}
	}
	if opts.Defects != nil {
		// Re-applied at every channel-width trial: defects are keyed by
		// structural coordinates, so they survive RR-graph rebuilds and
		// any tracks added by escalation are defect-free.
		ropts.Mask = func(g *rrgraph.Graph) {
			st := opts.Defects.Apply(g)
			f.tr.Add("fault.rr_dead_nodes", int64(st.DeadWires))
			f.tr.Add("fault.rr_edges_removed", int64(st.EdgesRemoved))
		}
	}
	if opts.MinChannelWidth {
		w, r, err := route.MinChannelWidth(f.Problem, f.Placed, 1, a.Routing.ChannelWidth, ropts)
		if err != nil {
			return "", err
		}
		a.Routing.ChannelWidth = w
		f.Routed = r
	} else {
		g, err := opts.RRCache.Get(a, f.tr)
		if err != nil {
			return "", err
		}
		if ropts.Mask != nil {
			ropts.Mask(g)
		}
		r, err := route.Route(f.Problem, f.Placed, g, ropts)
		if err != nil {
			return "", err
		}
		if !r.Success {
			return "", fmt.Errorf("core: %w at W=%d (%d overused)", route.ErrUnroutable, a.Routing.ChannelWidth, r.Overused)
		}
		f.Routed = r
	}
	if err := f.Routed.Validate(f.Problem, f.Placed); err != nil {
		return "", err
	}
	f.Metrics.ChannelWidth, f.Metrics.WirelengthUsed = f.Routed.Graph.W, f.Routed.WirelengthUsed()
	f.tr.Add("flow.channel_width", int64(f.Routed.Graph.W))
	f.tr.Add("route.wirelength", int64(f.Metrics.WirelengthUsed))
	f.tr.Add("flow.nets", int64(len(f.Routed.Routes)))
	return fmt.Sprintf("W=%d, %d wire segments", f.Routed.Graph.W, f.Metrics.WirelengthUsed),
		f.runChecks(check.StageRoute, &check.Artifacts{
			Graph: f.Routed.Graph, Routing: f.Routed,
			Problem: f.Problem, Placement: f.Placed,
		})
}

func (f *flow) staticTiming(context.Context) (string, error) {
	an, err := timing.Analyze(f.Packing, f.Problem, f.Placed, f.Routed)
	if err != nil {
		return "", err
	}
	f.Timing = an
	f.Metrics.CriticalPath = an.CriticalPath
	f.Metrics.MaxClockMHz, f.Metrics.DataRateMbps = an.MaxClockHz/1e6, an.MaxDataRateHz/1e6
	f.tr.SetGauge("timing.critical_path_ns", an.CriticalPath*1e9)
	f.tr.SetGauge("timing.fmax_mhz", an.MaxClockHz/1e6)
	return fmt.Sprintf("%.2f ns critical path", an.CriticalPath*1e9), nil
}

func (f *flow) powerModel(context.Context) (string, error) {
	opts := &f.opts
	clock := opts.ClockHz
	if clock == 0 {
		clock = f.Timing.MaxClockHz
	}
	act, err := sim.EstimateActivity(f.Mapped.Netlist, opts.ActivityCycles, 0.5, opts.Seed, f.tr)
	if err != nil {
		return "", err
	}
	rep, err := power.Estimate(f.Packing, f.Problem, f.Placed, f.Routed, act, clock)
	if err != nil {
		return "", err
	}
	f.Power = rep
	f.Metrics.PowerTotalMW, f.Metrics.EnergyPJ = rep.Total*1e3, rep.Total/clock*1e12
	f.tr.SetGauge("power.total_mw", rep.Total*1e3)
	f.tr.SetGauge("power.energy_pj", f.Metrics.EnergyPJ)
	f.Metrics.AreaUnits = power.FabricAreaMinWidthUnits(f.Arch)
	// Publish the per-design QoR record: the delay/energy numbers the
	// golden suite and benchgate gate on, tagged with the profile that
	// produced them.
	if f.tr.Events().Enabled() {
		f.tr.Publish(events.Event{Kind: events.KindQoR, QoR: &events.QoREvent{
			Design:         f.Metrics.Name,
			Profile:        string(opts.Profile),
			ChannelWidth:   f.Metrics.ChannelWidth,
			Wirelength:     f.Metrics.WirelengthUsed,
			CriticalPathNS: f.Metrics.CriticalPath * 1e9,
			PowerMW:        f.Metrics.PowerTotalMW,
			EnergyPJ:       f.Metrics.EnergyPJ,
		}})
	}
	return fmt.Sprintf("%.3f mW at %.0f MHz", rep.Total*1e3, clock/1e6), nil
}

func (f *flow) dagger(context.Context) (string, error) {
	bs, err := bitstream.Generate(f.Packing, f.Problem, f.Placed, f.Routed)
	if err != nil {
		return "", err
	}
	f.Bits = bs
	f.Encoded, err = bitstream.Encode(bs)
	if err != nil {
		return "", err
	}
	f.Metrics.BitstreamBits = len(f.Encoded) * 8
	f.tr.Add("flow.bitstream_bits", int64(f.Metrics.BitstreamBits))
	return fmt.Sprintf("%d bytes", len(f.Encoded)),
		f.runChecks(check.StageBitstream, &check.Artifacts{
			Encoded: f.Encoded, Arch: f.Arch, Packing: f.Packing,
			Problem: f.Problem, Placement: f.Placed,
			Graph: f.Routed.Graph, Routing: f.Routed,
			Bitstream: bs,
		})
}

// verify decodes the bitstream, extracts its netlist and checks it is
// equivalent to the source.
func (f *flow) verify(context.Context) (string, error) {
	bs, err := bitstream.Decode(f.Encoded)
	if err != nil {
		return "", err
	}
	extracted, err := bitstream.Extract(bs)
	if err != nil {
		return "", err
	}
	if err := sim.CheckEquivalent(f.Source, extracted, 12, 400, f.opts.Seed+1); err != nil {
		return "", fmt.Errorf("core: bitstream does not implement the source design: %w", err)
	}
	f.Verified = true
	f.tr.Add("verify.equivalence_checks", 1)
	return "bitstream equivalent to source", nil
}

// runChecks executes the stage-boundary rule set for one flow stage,
// records diagnostic counts on the run's trace and fails fast when any
// error-severity diagnostic fired. It runs inside the stage so the
// returned error carries the stage tag.
func (f *flow) runChecks(stage check.Stage, arts *check.Artifacts) error {
	if f.opts.SkipChecks {
		return nil
	}
	arts.Disable, arts.Defects = f.opts.DisableChecks, f.opts.Defects
	rep := check.RunStage(stage, arts)
	rep.Record(f.tr)
	return rep.Err()
}

// stageAbandonGrace is how long a deadline-exceeded stage gets to notice
// the cancellation before the runner abandons its goroutine and reports
// the timeout. Placement and routing cancel cooperatively well within
// this; CPU-bound stages without cancellation points are left to finish
// in the background (their report is discarded, and a timed-out run is
// never resumed).
const stageAbandonGrace = 250 * time.Millisecond

// stage is the driver for one table entry: it announces the stage
// (StageStart, events), runs it under the stage deadline with panic
// shielding inside its own span, records its Stage entry and returns its
// failure as a *StageError.
func (f *flow) stage(ctx context.Context, s step) error {
	opts, tool := &f.opts, s.name
	if opts.StageStart != nil {
		opts.StageStart(tool)
	}
	if f.tr.Events().Enabled() {
		f.tr.Publish(events.Event{Kind: events.KindStage,
			Stage: &events.StageEvent{Stage: tool, Phase: "start"}})
	}
	if err := ctx.Err(); err != nil {
		return &StageError{Stage: tool, Err: err}
	}
	sctx, cancel := ctx, context.CancelFunc(func() {})
	if opts.StageTimeout > 0 {
		sctx, cancel = context.WithTimeout(ctx, opts.StageTimeout)
	}
	defer cancel()
	sp := f.tr.Start(tool)
	//fpgavet:ignore walltime stage wall-clock is telemetry only and never feeds QoR decisions
	start := time.Now()
	f.Stages = append(f.Stages, Stage{Tool: tool})
	// The body runs on its own goroutine so a deadline can abandon it; with
	// no deadline and no cancellable parent, sctx.Done() is nil and the
	// select simply waits for the body.
	done := make(chan outcome, 1)
	go func() { done <- runShielded(sctx, f, s.run) }()
	var out outcome
	select {
	case out = <-done:
	case <-sctx.Done():
		select {
		case out = <-done:
		case <-time.After(stageAbandonGrace):
			out.err = sctx.Err()
			f.tr.Add("flow.stage_abandoned", 1)
		}
	}
	st := &f.Stages[len(f.Stages)-1]
	st.Detail = out.detail
	sp.SetDetail("%s", st.Detail)
	sp.End()
	if sp != nil {
		// The span is the source of truth for the stage's own timing.
		st.Duration, st.CPU, st.AllocBytes = sp.Wall, sp.CPU, sp.AllocBytes
		// Stage wall time feeds the farm's latency distribution, labeled by
		// stage (bounded: the stage set is fixed). The span already carries
		// the measurement, so no extra clock read happens here.
		f.tr.HistogramVec("flow.stage_seconds", "stage").Observe(tool, sp.Wall.Seconds())
	} else {
		//fpgavet:ignore walltime fallback duration telemetry when spans are disabled; reporting only
		st.Duration = time.Since(start)
	}
	f.tr.Add("flow.stages", 1)
	if f.tr.Events().Enabled() {
		end := &events.StageEvent{Stage: tool, Phase: "end", WallNS: st.Duration.Nanoseconds()}
		if out.err != nil {
			end.Err = out.err.Error()
		}
		f.tr.Publish(events.Event{Kind: events.KindStage, Stage: end})
	}
	if out.err != nil {
		f.tr.Add("flow.stage_errors", 1)
		return &StageError{Stage: tool, Err: out.err, retryable: retryableCause(s.seeded, out.err)}
	}
	return nil
}

// outcome is what a stage body returned.
type outcome struct {
	detail string
	err    error
}

// runShielded executes a stage body, converting a panic into a
// *PanicError so one buggy stage cannot take down the whole runner (or
// the GUI server driving it).
func runShielded(ctx context.Context, f *flow, run func(*flow, context.Context) (string, error)) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out.err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	out.detail, out.err = run(f, ctx)
	return out
}

// Summary renders the per-stage report like the GUI's log pane.
func (res *Result) Summary() string {
	out := fmt.Sprintf("design %s\n", res.Metrics.Name)
	for _, s := range res.Stages {
		out += fmt.Sprintf("  %-12s %-40s %8.2fms\n", s.Tool, s.Detail, float64(s.Duration.Microseconds())/1000)
	}
	m := res.Metrics
	out += fmt.Sprintf("  LUTs=%d depth=%d CLBs=%d grid=%dx%d W=%d crit=%.2fns fmax=%.1fMHz power=%.3fmW bits=%d\n",
		m.LUTs, m.Depth, m.CLBs, m.GridW, m.GridH, m.ChannelWidth,
		m.CriticalPath*1e9, m.MaxClockMHz, m.PowerTotalMW, m.BitstreamBits)
	return out
}
