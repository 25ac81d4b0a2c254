package core

import (
	"testing"

	"fpgaflow/internal/circuits"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/obs/events"
	"fpgaflow/internal/route"
)

func TestParseProfile(t *testing.T) {
	for in, want := range map[string]Profile{
		"": ProfileBalanced, "balanced": ProfileBalanced, "timing": ProfileTiming,
		"min-delay": ProfileMinDelay, "min-energy": ProfileMinEnergy, "min-area": ProfileMinArea,
	} {
		got, err := ParseProfile(in)
		if err != nil || got != want {
			t.Errorf("ParseProfile(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParseProfile("fastest"); err == nil {
		t.Error("unknown profile accepted")
	}
}

// TestProfileStageModes pins what each profile asks of the stages: the
// placement mode, the router's base cost, the in-router criticality blend,
// power-aware packing and the channel-width search (which Options.fill
// turns on).
func TestProfileStageModes(t *testing.T) {
	for prof, want := range map[Profile]stageModes{
		ProfileBalanced:  {routeBase: route.BaseHops},
		ProfileTiming:    {timingPlace: true, routeBase: route.BaseDelay},
		ProfileMinDelay:  {timingPlace: true, routeBase: route.BaseDelay, critRoute: true},
		ProfileMinEnergy: {routeBase: route.BaseEnergy, gatedPack: true},
		ProfileMinArea:   {routeBase: route.BaseHops, minW: true},
	} {
		if got := profiles[prof]; got != want {
			t.Errorf("%q: stage modes %+v, want %+v", prof, got, want)
		}
		o := Options{Profile: prof}
		o.fill()
		if o.MinChannelWidth != want.minW {
			t.Errorf("%q: MinChannelWidth = %v after fill, want %v", prof, o.MinChannelWidth, want.minW)
		}
	}
	if len(profiles) != 5 {
		t.Errorf("%d profiles, want 5", len(profiles))
	}
}

// TestProfileFlowsEmitQoR runs a sequential design under every profile and
// checks each flow completes, reports a positive per-cycle energy, and
// publishes exactly one QoR event, tagged with its own profile (a timing
// run is labelled "timing", not balanced), carrying the metrics the gates
// compare.
func TestProfileFlowsEmitQoR(t *testing.T) {
	b := circuits.Counter(4)
	for _, prof := range []Profile{ProfileBalanced, ProfileTiming, ProfileMinDelay, ProfileMinEnergy, ProfileMinArea} {
		bus := events.NewBus(256)
		tr := obs.New("qor")
		tr.SetEvents(bus)
		res, err := RunVHDL(b.VHDL, Options{Seed: 2, Profile: prof, SkipVerify: true, Obs: tr})
		if err != nil {
			t.Fatalf("profile %q: %v\n%s", prof, err, res.Summary())
		}
		if res.Metrics.EnergyPJ <= 0 {
			t.Errorf("profile %q: EnergyPJ = %v, want > 0", prof, res.Metrics.EnergyPJ)
		}
		if res.Metrics.CriticalPath <= 0 {
			t.Errorf("profile %q: no critical path", prof)
		}
		var qor []*events.QoREvent
		for _, ev := range bus.Snapshot() {
			if ev.Kind == events.KindQoR {
				if err := ev.Validate(); err != nil {
					t.Errorf("profile %q: invalid QoR event: %v", prof, err)
				}
				qor = append(qor, ev.QoR)
			}
		}
		if len(qor) != 1 {
			t.Fatalf("profile %q: %d QoR events, want 1", prof, len(qor))
		}
		q := qor[0]
		if q.Profile != string(prof) {
			t.Errorf("QoR event profile %q, want %q", q.Profile, prof)
		}
		if q.CriticalPathNS != res.Metrics.CriticalPath*1e9 || q.EnergyPJ != res.Metrics.EnergyPJ ||
			q.ChannelWidth != res.Metrics.ChannelWidth || q.Wirelength != res.Metrics.WirelengthUsed {
			t.Errorf("profile %q: QoR event diverges from metrics: %+v vs %+v", prof, q, res.Metrics)
		}
	}
}
