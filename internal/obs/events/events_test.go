package events

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// sampleEvents returns one fully-populated event of every kind.
func sampleEvents() []Event {
	return []Event{
		{Kind: KindPlaceStep, PlaceStep: &PlaceStep{
			Seed: 7, Step: 3, Temperature: 1.25, Cost: 92.5,
			AcceptRate: 0.44, RangeLimit: 6, Moves: 256,
		}},
		{Kind: KindPlaceMap, PlaceMap: &PlaceMap{
			Seed: 7, Cols: 4, Rows: 4, Cost: 80.25,
			CLBs: []Cell{{X: 1, Y: 2, Used: 3, Capacity: 5}},
			Pads: []Cell{{X: 0, Y: 1, Used: 1, Capacity: 2}},
		}},
		{Kind: KindRouteIter, RouteIter: &RouteIter{
			Iter: 17, Overused: 9, OveruseSum: 12, PresFac: 3.4,
			Wirelength: 180, HeapPops: 12345, DirtyNets: 21,
		}},
		{Kind: KindRouteCongestion, RouteCongestion: &RouteCongestion{
			Width: 8, Iterations: 17, Success: true,
			Segments: []Segment{
				{Vertical: false, X: 1, Y: 0, Track: 2, Usage: 1, Capacity: 1},
				{Vertical: true, X: 2, Y: 3, Track: 0, Usage: 2, Capacity: 1},
			},
		}},
		{Kind: KindSpan, Path: "attempt 2/VPR route", Span: &SpanEvent{Phase: "end", SpanRecord: SpanRecord{
			Name: "VPR route", Path: "attempt 2/VPR route", Depth: 1, Detail: "err=unroutable",
			StartNS: 5e6, WallNS: 1e6, CPUNS: 9e5, AllocBytes: 4096, Mallocs: 12,
		}}},
		{Kind: KindFlow, Flow: &FlowEvent{Action: "retry", Attempt: 2, Seed: 104730, Reason: "route: unroutable"}},
		{Kind: KindJob, Job: &JobEvent{
			ID: "j000042", Tenant: "alice", Action: "done",
			State: "failed", Attempt: 3, Reason: "VPR route: unroutable",
		}},
		{Kind: KindQoR, QoR: &QoREvent{
			Design: "rand64", Profile: "min-delay", ChannelWidth: 16,
			Wirelength: 552, CriticalPathNS: 12.49, PowerMW: 1.59, EnergyPJ: 19.86,
		}},
	}
}

// TestEventSchemaRoundTrip encodes every event kind to JSON, decodes it
// back, and requires deep equality — the schema contract consumers
// (qorviz, fpgaweb, external tooling) rely on.
func TestEventSchemaRoundTrip(t *testing.T) {
	for _, ev := range sampleEvents() {
		ev.Seq = 42
		ev.TimeNS = 9001
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("%s: marshal: %v", ev.Kind, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", ev.Kind, err)
		}
		if !reflect.DeepEqual(ev, got) {
			t.Errorf("%s: round trip mismatch:\n in: %+v\nout: %+v", ev.Kind, ev, got)
		}
	}
}

func TestDecodeRejectsMismatchedKind(t *testing.T) {
	if _, err := Decode([]byte(`{"kind":"route_iter","place_step":{"step":1}}`)); err == nil {
		t.Fatal("mismatched kind/payload accepted")
	}
	if _, err := Decode([]byte(`{"kind":"route_iter"}`)); err == nil {
		t.Fatal("payload-less event accepted")
	}
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestBusDisabledAndNilAreNoOps(t *testing.T) {
	var nilBus *Bus
	if nilBus.Enabled() {
		t.Fatal("nil bus enabled")
	}
	nilBus.Publish(Event{Kind: KindSpan, Span: &SpanEvent{Phase: "start", SpanRecord: SpanRecord{Name: "x", Path: "x"}}})
	nilBus.SetEnabled(true)
	nilBus.Unsubscribe(1)
	if nilBus.Snapshot() != nil || nilBus.Len() != 0 || nilBus.Dropped() != 0 {
		t.Fatal("nil bus not empty")
	}
	if _, ok := nilBus.Latest(KindSpan); ok {
		t.Fatal("nil bus has a latest event")
	}

	b := NewBus(8)
	b.SetEnabled(false)
	b.Publish(Event{Kind: KindSpan, Span: &SpanEvent{Phase: "start", SpanRecord: SpanRecord{Name: "x", Path: "x"}}})
	if b.Len() != 0 {
		t.Fatal("disabled publish reached the ring")
	}
	b.SetEnabled(true)
	b.Publish(Event{Kind: KindSpan, Span: &SpanEvent{Phase: "start", SpanRecord: SpanRecord{Name: "x", Path: "x"}}})
	if b.Len() != 1 {
		t.Fatal("enabled publish lost")
	}
}

func TestBusRingWrapKeepsLatest(t *testing.T) {
	b := NewBus(4)
	b.Publish(Event{Kind: KindPlaceMap, PlaceMap: &PlaceMap{Cols: 3, Rows: 3}})
	for i := 1; i <= 10; i++ {
		b.Publish(Event{Kind: KindRouteIter, RouteIter: &RouteIter{Iter: i}})
	}
	snap := b.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(snap))
	}
	// Oldest-first, and only the newest four survive.
	for i, ev := range snap {
		if want := 7 + i; ev.RouteIter == nil || ev.RouteIter.Iter != want {
			t.Fatalf("snapshot[%d] = %+v, want route_iter %d", i, ev, want)
		}
		if i > 0 && snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("snapshot seq not contiguous: %d then %d", snap[i-1].Seq, snap[i].Seq)
		}
	}
	// The evicted place_map is still reachable for heatmap building.
	ev, ok := b.Latest(KindPlaceMap)
	if !ok || ev.PlaceMap.Cols != 3 {
		t.Fatal("latest place_map lost to ring wrap")
	}
}

func TestBusSubscribeReplayAndLive(t *testing.T) {
	b := NewBus(16)
	b.Publish(Event{Kind: KindRouteIter, RouteIter: &RouteIter{Iter: 1}})
	id, ch, replay := b.Subscribe(4)
	defer b.Unsubscribe(id)
	if len(replay) != 1 || replay[0].RouteIter.Iter != 1 {
		t.Fatalf("replay = %+v, want the pre-subscription event", replay)
	}
	b.Publish(Event{Kind: KindRouteIter, RouteIter: &RouteIter{Iter: 2}})
	got := <-ch
	if got.RouteIter.Iter != 2 {
		t.Fatalf("live event iter = %d, want 2", got.RouteIter.Iter)
	}
	// A full subscriber buffer drops instead of blocking the publisher.
	for i := 0; i < 10; i++ {
		b.Publish(Event{Kind: KindRouteIter, RouteIter: &RouteIter{Iter: 3 + i}})
	}
	if b.Dropped() == 0 {
		t.Fatal("overfull subscriber did not drop")
	}
}

func TestBusUnsubscribeClosesChannel(t *testing.T) {
	b := NewBus(4)
	id, ch, _ := b.Subscribe(1)
	b.Unsubscribe(id)
	if _, open := <-ch; open {
		t.Fatal("channel still open after Unsubscribe")
	}
	b.Unsubscribe(id) // double unsubscribe is fine
	// Publishing after unsubscribe must not panic on the closed channel.
	b.Publish(Event{Kind: KindRouteIter, RouteIter: &RouteIter{Iter: 1}})
}

// TestBusConcurrentPublish hammers the bus from several goroutines (run
// under -race in CI) and checks that the JSONL sink saw every event in
// strict sequence order.
func TestBusConcurrentPublish(t *testing.T) {
	b := NewBus(64)
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	b.AddSink(w.Write)
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Publish(Event{Kind: KindPlaceStep, PlaceStep: &PlaceStep{Seed: int64(g), Step: i}})
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != goroutines*per {
		t.Fatalf("sink saw %d events, want %d", len(lines), goroutines*per)
	}
	for i, line := range lines {
		ev, err := Decode([]byte(line))
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("line %d has seq %d: sink order diverged from sequence", i, ev.Seq)
		}
	}
}

func TestHeatmapBuildAndRoundTrip(t *testing.T) {
	pm := &PlaceMap{Cols: 4, Rows: 4, Cost: 10,
		CLBs: []Cell{{X: 1, Y: 1, Used: 2, Capacity: 5}}}
	rc := &RouteCongestion{Width: 6, Iterations: 3, Success: true,
		Segments: []Segment{
			{X: 1, Y: 0, Track: 0, Usage: 1, Capacity: 1},
			{Vertical: true, X: 2, Y: 1, Track: 3, Usage: 3, Capacity: 1},
		}}
	h := BuildHeatmap(pm, rc)
	if h.Cols != 4 || h.Rows != 4 || h.ChannelWidth != 6 {
		t.Fatalf("extent = %dx%d W=%d", h.Cols, h.Rows, h.ChannelWidth)
	}
	if h.MaxChannelUsage != 3 || h.Overused != 1 {
		t.Fatalf("max usage %d overused %d, want 3 and 1", h.MaxChannelUsage, h.Overused)
	}
	var buf bytes.Buffer
	if err := h.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseHeatmap(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, back) {
		t.Fatalf("heatmap round trip mismatch:\n in: %+v\nout: %+v", h, back)
	}

	if BuildHeatmap(nil, nil) != nil {
		t.Fatal("empty heatmap not nil")
	}
	if got := BuildHeatmap(nil, rc); got.Cols < 2 {
		t.Fatalf("route-only heatmap extent not grown from segments: %+v", got)
	}
}

func TestHeatmapFromBus(t *testing.T) {
	b := NewBus(8)
	if HeatmapFromBus(b) != nil {
		t.Fatal("heatmap from empty bus not nil")
	}
	b.Publish(Event{Kind: KindPlaceMap, PlaceMap: &PlaceMap{Cols: 2, Rows: 2,
		CLBs: []Cell{{X: 1, Y: 1, Used: 1, Capacity: 5}}}})
	b.Publish(Event{Kind: KindRouteCongestion, RouteCongestion: &RouteCongestion{
		Width: 4, Success: true, Segments: []Segment{{X: 1, Y: 0, Usage: 1, Capacity: 1}}}})
	h := HeatmapFromBus(b)
	if h == nil || len(h.CLBs) != 1 || len(h.Channels) != 1 || !h.RouteSuccess {
		t.Fatalf("heatmap = %+v", h)
	}
}
