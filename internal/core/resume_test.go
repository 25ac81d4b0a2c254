package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/circuits"
	"fpgaflow/internal/fault"
	"fpgaflow/internal/obs"
)

// A retry resumes the run at the first stage its option change affects.
// The tests below pin the contract: the retried result is byte-identical
// to a fresh single attempt with the final options, only the affected
// stages run again, and Result.Stages lists every stage once.

// stageRuns counts StageStart calls per stage.
func stageRuns(opts *Options) map[string]int {
	runs := map[string]int{}
	opts.StageStart = func(tool string) { runs[tool]++ }
	return runs
}

// toolList is the Result.Stages tool sequence.
func toolList(res *Result) []string {
	var tools []string
	for _, s := range res.Stages {
		tools = append(tools, s.Tool)
	}
	return tools
}

// assertSameAsFresh compares a retried result with a fresh run under the
// final options.
func assertSameAsFresh(t *testing.T, got, fresh *Result) {
	t.Helper()
	if !bytes.Equal(got.Encoded, fresh.Encoded) {
		t.Error("retried bitstream differs from a fresh attempt with the final options")
	}
	if got.Metrics != fresh.Metrics {
		t.Errorf("retried metrics %+v\nfresh metrics   %+v", got.Metrics, fresh.Metrics)
	}
	if !reflect.DeepEqual(toolList(got), toolList(fresh)) {
		t.Errorf("retried stages %v, fresh stages %v", toolList(got), toolList(fresh))
	}
	if !got.Verified {
		t.Error("retried result is not verified")
	}
}

// TestEscalationResumesAtRoute: at a hopeless fixed W the first attempt
// fails in VPR route; the escalated retry reuses the placement and runs
// only the route stage onwards again.
func TestEscalationResumesAtRoute(t *testing.T) {
	src := circuits.ParityTree(8).VHDL
	narrow := func() *arch.Arch {
		a := arch.Paper()
		a.Routing.ChannelWidth = 1
		return a
	}
	tr := obs.New("escalate")
	opts := Options{Seed: 4, Arch: narrow(), Retry: DefaultRetryPolicy(), Obs: tr}
	runs := stageRuns(&opts)
	res, err := RunVHDLContext(faultTestCtx(t), src, opts)
	if err != nil {
		t.Fatalf("escalation did not rescue W=1: %v", err)
	}
	fresh, err := RunVHDL(src, Options{Seed: 4, Arch: narrow(), MinChannelWidth: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAsFresh(t, res, fresh)
	for _, s := range stages {
		want := 1
		if s.name == "VPR route" {
			want = 2
		}
		if runs[s.name] != want {
			t.Errorf("stage %s ran %d times, want %d", s.name, runs[s.name], want)
		}
	}
	if c := tr.Counters(); c["flow.attempts"] != 2 || c["flow.degraded"] != 1 {
		t.Errorf("attempts=%d degraded=%d, want 2/1", c["flow.attempts"], c["flow.degraded"])
	}
}

// stuckBitCase is a defect map whose stuck LUT bits fight the
// configuration placed with seed 1 but not the one placed with seed
// 1+reseedStep: a deterministic DAGGER failure that re-seeding cures.
func stuckBitCase(t *testing.T) *fault.DefectMap {
	t.Helper()
	dm, err := fault.Generate(arch.Paper(), 2, fault.Rates{StuckBit: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	return dm
}

// TestRetryReseedResumesAtPlace: a stuck-bit conflict fails DAGGER; the
// re-seeded retry resumes at VPR place and matches a fresh run at the new
// seed. With a hopeless W the same run first escalates, so the re-seed
// resumes after a successful min-W route has widened the shared
// architecture: the resumed min-W search must still start from the
// original width.
func TestRetryReseedResumesAtPlace(t *testing.T) {
	src := circuits.Counter(4).VHDL
	for _, tc := range []struct {
		name              string
		width             int
		retries, degraded int64
		placeRuns         int
	}{
		{"reseed", 16, 1, 0, 2},
		{"escalate-then-reseed", 1, 2, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dm := stuckBitCase(t)
			fabric := func() *arch.Arch {
				a := arch.Paper()
				a.Routing.ChannelWidth = tc.width
				return a
			}
			tr := obs.New(tc.name)
			opts := Options{Seed: 1, Arch: fabric(), Defects: dm, Retry: DefaultRetryPolicy(), Obs: tr}
			runs := stageRuns(&opts)
			res, err := RunVHDLContext(faultTestCtx(t), src, opts)
			if err != nil {
				t.Fatalf("re-seeded retry failed: %v", err)
			}
			fresh, err := RunVHDL(src, Options{Seed: 1 + reseedStep, Arch: fabric(), Defects: dm,
				MinChannelWidth: tc.degraded > 0})
			if err != nil {
				t.Fatal(err)
			}
			assertSameAsFresh(t, res, fresh)
			c := tr.Counters()
			if c["flow.retries"] != tc.retries || c["flow.degraded"] != tc.degraded {
				t.Errorf("retries=%d degraded=%d, want %d/%d", c["flow.retries"], c["flow.degraded"], tc.retries, tc.degraded)
			}
			if c["fault.injected"] != int64(dm.Count()) {
				t.Errorf("fault.injected = %d after a retried run, want %d", c["fault.injected"], dm.Count())
			}
			for _, name := range []string{"VHDL Parser", "SIS", "LUT map", "T-VPack", "DUTYS"} {
				if runs[name] != 1 {
					t.Errorf("stage %s ran %d times, want 1", name, runs[name])
				}
			}
			if runs["VPR place"] != tc.placeRuns || runs["DAGGER"] != 2 || runs["Verify"] != 1 {
				t.Errorf("place/DAGGER/Verify ran %d/%d/%d times, want %d/2/1",
					runs["VPR place"], runs["DAGGER"], runs["Verify"], tc.placeRuns)
			}
		})
	}
}

// TestResumedStageSeesFreshState checks the hazard behind the re-seed
// resume directly: every time VPR place or VPR route is entered, on any
// attempt, the run's stage records and architecture are exactly what a
// fresh attempt with the final options hands that stage.
func TestResumedStageSeesFreshState(t *testing.T) {
	src := circuits.Counter(4).VHDL
	narrow := func() *arch.Arch {
		a := arch.Paper()
		a.Routing.ChannelWidth = 1
		return a
	}
	entries := func(opts Options) map[string][]string {
		f := &flow{src: src}
		seen := map[string][]string{}
		opts.StageStart = func(tool string) {
			if tool == "VPR place" || tool == "VPR route" {
				seen[tool] = append(seen[tool], fmt.Sprintf("%v\n%s", toolList(f.Result), arch.Format(f.Arch)))
			}
		}
		if _, err := runRetry(faultTestCtx(t), opts, f.attempt); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	dm := stuckBitCase(t)
	got := entries(Options{Seed: 1, Arch: narrow(), Defects: dm, Retry: DefaultRetryPolicy()})
	want := entries(Options{Seed: 1 + reseedStep, Arch: narrow(), Defects: dm, MinChannelWidth: true})
	for _, tool := range []string{"VPR place", "VPR route"} {
		if len(want[tool]) != 1 || len(got[tool]) < 2 {
			t.Fatalf("%s entered %d times retried, %d times fresh", tool, len(got[tool]), len(want[tool]))
		}
		for i, g := range got[tool] {
			if g != want[tool][0] {
				t.Errorf("%s entry %d saw\n%s\nwant\n%s", tool, i+1, g, want[tool][0])
			}
		}
	}
}

// TestRetryKeepsPartialConsistent: when the resumed attempt fails too, the
// error's Partial holds no artifact of a stage the failing attempt did not
// reach, although the first attempt built them.
func TestRetryKeepsPartialConsistent(t *testing.T) {
	ctx, cancel := context.WithCancel(faultTestCtx(t))
	defer cancel()
	routes := 0
	_, err := RunVHDLContext(ctx, circuits.Counter(4).VHDL, Options{
		Seed: 1, Arch: arch.Paper(), Defects: stuckBitCase(t),
		Retry: RetryPolicy{MaxAttempts: 2, ReseedPlacement: true},
		StageStart: func(tool string) {
			if tool == "VPR route" {
				if routes++; routes == 2 {
					cancel() // the retry fails on entering VPR route
				}
			}
		},
	})
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "VPR route" || se.Attempt != 2 {
		t.Fatalf("got %v, want the retry's VPR route failure", err)
	}
	if p := se.Partial; p.Routed != nil || p.Bits != nil || p.Encoded != nil || p.Timing != nil {
		t.Error("Partial keeps artifacts of the first attempt's later stages")
	}
	if p := se.Partial; p.Placed == nil || p.Packing == nil {
		t.Error("Partial lost the artifacts built before the failure")
	}
}
