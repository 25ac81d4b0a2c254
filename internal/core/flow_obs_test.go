package core

import (
	"bytes"
	"strings"
	"testing"

	"fpgaflow/internal/circuits"
	"fpgaflow/internal/obs"
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
