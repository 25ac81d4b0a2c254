package jobs

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fpgaflow/internal/core"
	"fpgaflow/internal/obs"
)

// specJSON is a job spec over the specFixture source with the given
// options object.
func specJSON(options string) []byte {
	return []byte(`{"tenant":"alice","source":".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n","options":` + options + `}`)
}

// Fingerprints recorded from the v1 spec format (two timing_driven_*
// booleans). Crash replay and dedup key on them, so a spec that means the
// same compile must keep hashing to the same value.
const (
	fpV1Empty      = "198fb51692b766e30a126714469c9467adc9f700695a5365e9e2bcae78ba8208"
	fpV1BothTiming = "17465442761725b65334dd4b78f37787fee77508eaa492cba085e9d07c06e243"
)

func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct{ options, want string }{
		{`{}`, fpV1Empty},
		{`{"seed":7}`, "145cf144bb06e45c8a7c7fad8d540c4ac13e4550a3520573620aff344cdfea9b"},
		{`{"min_channel_width":true,"retries":2}`, "361c75eadb0fadc95a1ea87ba89cfc559497fae4915b595269cb9ee6af72ff43"},
		{`{"timing_driven_place":true,"timing_driven_route":true}`, fpV1BothTiming},
		// The v2 spellings of the same compiles.
		{`{"profile":"balanced"}`, fpV1Empty},
		{`{"profile":"timing"}`, fpV1BothTiming},
		// A v1 spec with one timing key now runs the full timing flow: it
		// is the both-keys compile and fingerprints as one.
		{`{"timing_driven_place":true}`, fpV1BothTiming},
		{`{"timing_driven_route":true}`, fpV1BothTiming},
	} {
		s, err := DecodeSpec(specJSON(tc.options))
		if err != nil {
			t.Fatalf("%s: %v", tc.options, err)
		}
		if got := s.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.options, got, tc.want)
		}
	}
	seen := map[string]string{}
	for _, p := range []string{"min-delay", "min-energy", "min-area"} {
		s, err := DecodeSpec(specJSON(`{"profile":"` + p + `"}`))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		fp := s.Fingerprint()
		if fp == fpV1Empty || fp == fpV1BothTiming || seen[fp] != "" {
			t.Errorf("profile %s fingerprint %s aliases another compile (%q)", p, fp, seen[fp])
		}
		seen[fp] = p
	}
}

func TestDecodeSpecProfile(t *testing.T) {
	for _, options := range []string{
		`{"profile":"fastest"}`,
		`{"profile":"min-delay","timing_driven_place":true}`,
	} {
		_, err := DecodeSpec(specJSON(options))
		var se *SpecError
		if !errors.As(err, &se) || se.Field != "options.profile" {
			t.Errorf("%s: err = %v, want a SpecError on options.profile", options, err)
		}
	}
	s, err := DecodeSpec(specJSON(`{"profile":"min-energy"}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.coreOptions().Profile; got != core.ProfileMinEnergy {
		t.Errorf("coreOptions().Profile = %q, want min-energy", got)
	}
}

// TestReplayV1WAL recovers a WAL written in the v1 spec format: both
// queued jobs come back under their stored fingerprints, the timing job
// runs the timing profile, and resubmitting its v1 JSON coalesces onto
// the recovered job.
func TestReplayV1WAL(t *testing.T) {
	wal, err := os.ReadFile(filepath.Join("testdata", "wal_v1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	records, _, tail, err := replayWAL(filepath.Join("testdata", "wal_v1.jsonl"))
	if err != nil || tail != nil || len(records) != 2 {
		t.Fatalf("replay testdata: %d records, tail %v, err %v", len(records), tail, err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	tr := obs.New("jobs")
	s := openService(t, func(c *Config) {
		c.Dir, c.Obs = dir, tr
		c.Runner = gateRunner(nil, release) // both jobs stay in flight
	})
	for _, rec := range records {
		st, err := s.Get(rec.Job)
		if err != nil {
			t.Fatal(err)
		}
		if st.Fingerprint != rec.Fingerprint || st.State.Terminal() {
			t.Errorf("%s recovered as %+v, want in-flight with fp %s", rec.Job, st, rec.Fingerprint)
		}
	}
	s.mu.Lock()
	timed, plain := s.jobs["j000001"].spec, s.jobs["j000002"].spec
	s.mu.Unlock()
	if got := timed.coreOptions().Profile; got != core.ProfileTiming {
		t.Errorf("v1 timing job profile %q, want timing", got)
	}
	if got := plain.coreOptions().Profile; got != core.ProfileBalanced {
		t.Errorf("v1 plain job profile %q, want balanced", got)
	}

	spec, err := DecodeSpec([]byte(`{"tenant":"alice","name":"timed","source":".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n","options":{"seed":3,"timing_driven_place":true,"timing_driven_route":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j000001" {
		t.Errorf("v1 resubmission became job %s, want j000001", st.ID)
	}
	if got := tr.Counters()["jobs.deduped"]; got != 1 {
		t.Errorf("jobs.deduped = %d, want 1", got)
	}
}
