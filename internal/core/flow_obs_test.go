package core

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/circuits"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/obs/events"
)

// TestFlowEmitsSpanPerStage runs the complete flow with an explicit trace
// and checks the observability contract: the attempt is the single
// top-level span, every stage appears exactly once nested under it with a
// nonzero duration, and the stage tools contribute at least six distinct
// counters.
func TestFlowEmitsSpanPerStage(t *testing.T) {
	tr := obs.New("flow-test")
	res, err := RunVHDL(circuits.RippleAdder(4).VHDL, Options{
		Seed:    1,
		ClockHz: 100e6,
		Obs:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}

	sum := tr.Summary()
	if sum == nil {
		t.Fatal("nil summary from a live trace")
	}

	// A clean run is one attempt span at the top level, with one stage span
	// per stage nested under it, in the same order as Result.Stages.
	var attempts, stages []string
	for _, sp := range sum.Spans {
		switch sp.Depth {
		case 0:
			attempts = append(attempts, sp.Name)
		case 1:
			stages = append(stages, sp.Name)
			if sp.WallNS <= 0 {
				t.Errorf("stage span %q has non-positive wall time %d", sp.Name, sp.WallNS)
			}
		}
	}
	if len(attempts) != 1 || attempts[0] != "attempt 1" {
		t.Fatalf("top-level spans = %v, want exactly [attempt 1]", attempts)
	}
	if len(stages) != len(res.Stages) {
		t.Fatalf("got %d stage spans %v, want %d (one per stage)",
			len(stages), stages, len(res.Stages))
	}
	seen := map[string]int{}
	for i, st := range res.Stages {
		if stages[i] != st.Tool {
			t.Errorf("span %d is %q, want stage %q", i, stages[i], st.Tool)
		}
		seen[st.Tool]++
		if st.Duration <= 0 {
			t.Errorf("stage %q Duration = %v, want > 0", st.Tool, st.Duration)
		}
	}
	for tool, n := range seen {
		if n != 1 {
			t.Errorf("stage %q appears %d times, want exactly once", tool, n)
		}
	}

	// Every stage's wall time must land in the flow.stage_seconds histogram
	// vec, keyed by the stage tool.
	hv := sum.HistogramVecs["flow.stage_seconds"]
	for _, st := range res.Stages {
		h, ok := hv.Values[st.Tool]
		if !ok || h.Count != 1 {
			t.Errorf("flow.stage_seconds[%q]: got %+v, want exactly one observation", st.Tool, h)
		}
	}

	// The span count accounting must agree with the stage counter.
	if got := sum.Counters["flow.stages"]; got != int64(len(res.Stages)) {
		t.Errorf("flow.stages = %d, want %d", got, len(res.Stages))
	}

	// At least six distinct stage-specific counter families must report.
	prefixes := []string{"synth.", "pack.", "place.", "route.", "sim.", "flow.", "verify."}
	present := map[string]bool{}
	for name := range sum.Counters {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				present[p] = true
			}
		}
	}
	if len(present) < 6 {
		t.Errorf("only %d counter families present (%v), want >= 6; counters: %v",
			len(present), present, sum.Counters)
	}

	// Tier-1 QoR metrics must be populated and coherent with the result.
	if sum.Counters["flow.luts"] != int64(res.Metrics.LUTs) {
		t.Errorf("flow.luts = %d, result says %d", sum.Counters["flow.luts"], res.Metrics.LUTs)
	}
	if sum.Counters["flow.clbs"] != int64(res.Metrics.CLBs) {
		t.Errorf("flow.clbs = %d, result says %d", sum.Counters["flow.clbs"], res.Metrics.CLBs)
	}
	if sum.Counters["flow.bitstream_bits"] <= 0 {
		t.Error("flow.bitstream_bits not recorded")
	}

	// The machine-readable form must survive a round-trip.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ParseSummary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != len(sum.Spans) || back.Counters["flow.stages"] != sum.Counters["flow.stages"] {
		t.Error("metrics JSON round-trip lost spans or counters")
	}
}

// TestFlowWithoutTraceStillTimesStages checks the no-observability path:
// a flow run with no trace installed must still stamp per-stage durations.
func TestFlowWithoutTraceStillTimesStages(t *testing.T) {
	res, err := RunVHDL(circuits.ParityTree(4).VHDL, Options{Seed: 1, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Stages {
		if st.Duration <= 0 {
			t.Errorf("stage %q Duration = %v without a trace, want > 0", st.Tool, st.Duration)
		}
	}
}

// TestOneRRGraphPerWidth pins the build-count contract: a compile builds
// the routing-resource graph once per distinct architecture it routes,
// through the run's cache, and DAGGER, the bitstream checks and Verify
// reuse the routed graph, so rrgraph.cache_misses is the compile's build
// count. A fixed-width compile builds once; pipe48 escalating from W=8
// builds once per width routed and routes each width once: the escalated
// search skips the width the fixed-width route just failed.
func TestOneRRGraphPerWidth(t *testing.T) {
	compile := func(t *testing.T, design string, opts Options) (map[string]int64, map[int]int) {
		t.Helper()
		blif, err := os.ReadFile("../../examples/netlists/" + design + ".blif")
		if err != nil {
			t.Fatal(err)
		}
		widths := map[int]int{}
		bus := events.NewBus(0)
		bus.AddSink(func(ev events.Event) {
			if ev.Kind == events.KindRouteCongestion {
				widths[ev.RouteCongestion.Width]++
			}
		})
		opts.Obs = obs.New(design)
		opts.Obs.SetEvents(bus)
		f := &flow{blif: string(blif), entry: stageIndex("SIS")}
		res, err := runRetry(context.Background(), opts, f.attempt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatal("unverified bitstream")
		}
		// No stage after routing built a graph of its own.
		if res.Bits.Graph != res.Routed.Graph {
			t.Error("DAGGER generated on a graph other than the routed one")
		}
		if f.decoded == nil || f.decoded.Graph != res.Routed.Graph {
			t.Error("the bitstream checks and Verify did not share one decode on the routed graph")
		}
		return opts.Obs.Counters(), widths
	}
	t.Run("rand64", func(t *testing.T) {
		c, _ := compile(t, "rand64", Options{Seed: 1})
		if c["rrgraph.cache_misses"] != 1 {
			t.Errorf("rrgraph.cache_misses = %d, want 1", c["rrgraph.cache_misses"])
		}
	})
	t.Run("pipe48-escalate", func(t *testing.T) {
		a := arch.Paper()
		a.Routing.ChannelWidth = 8
		c, widths := compile(t, "pipe48", Options{Seed: 1, Arch: a, AutoSizeGrid: true, Retry: DefaultRetryPolicy()})
		if c["flow.degraded"] != 1 {
			t.Fatalf("flow.degraded = %d; pipe48 must escalate from W=8", c["flow.degraded"])
		}
		if c["rrgraph.cache_misses"] != int64(len(widths)) {
			t.Errorf("rrgraph.cache_misses = %d for %d distinct widths routed", c["rrgraph.cache_misses"], len(widths))
		}
		if hits, ok := c["rrgraph.cache_hits"]; !ok || hits != 0 {
			t.Errorf("rrgraph.cache_hits = %d (present %v), want 0 and present", hits, ok)
		}
		for w, n := range widths {
			if n != 1 {
				t.Errorf("W=%d routed %d times, want once", w, n)
			}
		}
	})
}

// TestRetryEventsCarryAttemptPath runs the W=1 escalation fixture of
// TestEscalationResumesAtRoute with an event bus attached: every route_iter
// event names its attempt and stage through its path, so the escalated
// attempt's iterations read "attempt 2/VPR route"; each span opens and
// closes exactly once on the stream, and the failed first route's end
// record carries its error.
func TestRetryEventsCarryAttemptPath(t *testing.T) {
	a := arch.Paper()
	a.Routing.ChannelWidth = 1
	bus := events.NewBus(1 << 16)
	tr := obs.New("escalate")
	tr.SetEvents(bus)
	opts := Options{Seed: 4, Arch: a, Retry: DefaultRetryPolicy(), Obs: tr}
	if _, err := RunVHDLContext(faultTestCtx(t), circuits.ParityTree(8).VHDL, opts); err != nil {
		t.Fatalf("escalation did not rescue W=1: %v", err)
	}
	iters := map[string]int{}
	starts, ends := map[string]int{}, map[string]int{}
	for _, ev := range bus.Snapshot() {
		switch ev.Kind {
		case events.KindRouteIter:
			iters[ev.Path]++
		case events.KindPlaceStep:
			if ev.Path != "attempt 1/VPR place" {
				t.Errorf("place_step path %q, want attempt 1/VPR place", ev.Path)
			}
		case events.KindSpan:
			if ev.Span.Phase == "start" {
				starts[ev.Path]++
				continue
			}
			ends[ev.Path]++
			if ev.Path == "attempt 1/VPR route" && !strings.Contains(ev.Span.Detail, "err=") {
				t.Errorf("failed route's end record detail %q lacks err=", ev.Span.Detail)
			}
		}
	}
	if iters["attempt 2/VPR route"] == 0 {
		t.Errorf("no route_iter event with path attempt 2/VPR route (paths %v)", iters)
	}
	for path := range iters {
		if path != "attempt 1/VPR route" && path != "attempt 2/VPR route" {
			t.Errorf("route_iter event with path %q", path)
		}
	}
	for _, path := range []string{"attempt 1", "attempt 2", "attempt 1/VPR place", "attempt 1/VPR route", "attempt 2/VPR route"} {
		if starts[path] != 1 || ends[path] != 1 {
			t.Errorf("span %q: %d start and %d end events, want 1 each", path, starts[path], ends[path])
		}
	}
	if starts["attempt 2/VPR place"] != 0 {
		t.Error("the escalated attempt ran placement again")
	}
}
