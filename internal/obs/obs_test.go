package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgaflow/internal/obs/events"
)

func TestSpanNestingAndOrdering(t *testing.T) {
	tr := New("test")
	a := tr.Start("A")
	b := tr.Start("B")
	time.Sleep(time.Millisecond)
	b.End()
	c := tr.Start("C")
	c.End()
	a.End()
	d := tr.Start("D")
	d.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	wantOrder := []string{"A", "B", "C", "D"}
	wantPath := []string{"A", "A/B", "A/C", "D"}
	wantDepth := []int{0, 1, 1, 0}
	for i, s := range spans {
		if s.Name != wantOrder[i] {
			t.Errorf("span %d name %q, want %q", i, s.Name, wantOrder[i])
		}
		if s.Path != wantPath[i] {
			t.Errorf("span %d path %q, want %q", i, s.Path, wantPath[i])
		}
		if s.Depth != wantDepth[i] {
			t.Errorf("span %d depth %d, want %d", i, s.Depth, wantDepth[i])
		}
	}
	if spans[1].Wall <= 0 {
		t.Errorf("span B wall %v, want > 0", spans[1].Wall)
	}
	if spans[0].Wall < spans[1].Wall {
		t.Errorf("parent wall %v shorter than child wall %v", spans[0].Wall, spans[1].Wall)
	}
}

func TestSpanDoubleEndIsStable(t *testing.T) {
	tr := New("test")
	s := tr.Start("once")
	s.End()
	wall := s.Wall
	time.Sleep(time.Millisecond)
	s.End()
	if s.Wall != wall {
		t.Fatalf("second End changed Wall from %v to %v", wall, s.Wall)
	}
}

func TestCounterConcurrentAggregation(t *testing.T) {
	tr := New("test")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Counter("work.items").Add(1)
				tr.Gauge("work.level").Max(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := tr.Counter("work.items").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := tr.Gauge("work.level").Value(); got != perWorker-1 {
		t.Fatalf("gauge max = %g, want %d", got, perWorker-1)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.Start("nope")
	sp.SetDetail("x %d", 1)
	sp.End()
	tr.Counter("c").Add(5)
	tr.Add("c", 1)
	tr.Gauge("g").Set(2)
	tr.SetGauge("g", 3)
	tr.MemSnapshot()
	if tr.Summary() != nil {
		t.Fatal("nil trace Summary should be nil")
	}
	if err := tr.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Counters(); got != nil {
		t.Fatalf("nil trace Counters = %v", got)
	}
	if tr.Events() != nil {
		t.Fatal("nil trace Events should be nil")
	}
	tr.SetEvents(events.NewBus(0))
	tr.Publish(events.Event{Kind: events.KindFlow, Flow: &events.FlowEvent{Action: "attempt"}})
}

func TestJSONRoundTrip(t *testing.T) {
	tr := New("roundtrip")
	s := tr.Start("stage1")
	s.SetDetail("did %d things", 3)
	s.End()
	inner := tr.Start("stage2")
	tr.Start("stage2.1").End()
	inner.End()
	tr.Add("items", 42)
	tr.SetGauge("ratio", 0.75)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSummary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "roundtrip" {
		t.Errorf("name %q", got.Name)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(got.Spans))
	}
	if got.Spans[0].Detail != "did 3 things" {
		t.Errorf("detail %q", got.Spans[0].Detail)
	}
	if got.Spans[2].Path != "stage2/stage2.1" {
		t.Errorf("nested path %q", got.Spans[2].Path)
	}
	if got.Counters["items"] != 42 {
		t.Errorf("counter %d", got.Counters["items"])
	}
	if got.Gauges["ratio"] != 0.75 {
		t.Errorf("gauge %g", got.Gauges["ratio"])
	}
	// Encoding the parsed summary again must yield identical structure.
	again, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var a, b Summary
	if err := json.Unmarshal(buf.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again, &b); err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name || len(a.Spans) != len(b.Spans) ||
		a.Counters["items"] != b.Counters["items"] || a.Gauges["ratio"] != b.Gauges["ratio"] {
		t.Fatal("round-trip mismatch")
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	tr := New("jsonl")
	sink := NewJSONLSink(&buf)
	tr.SetSink(sink)
	tr.Start("a").End()
	tr.Start("b").End()
	tr.Add("n", 7)
	if err := sink.Close(tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3 (2 spans + summary):\n%s", len(lines), buf.String())
	}
	for i, line := range lines[:2] {
		var ev struct {
			Event string      `json:"ev"`
			Span  *SpanRecord `json:"span"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if ev.Event != "span" || ev.Span == nil {
			t.Fatalf("line %d: %+v", i, ev)
		}
	}
	var last struct {
		Event string   `json:"ev"`
		Sum   *Summary `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Event != "summary" || last.Sum == nil || last.Sum.Counters["n"] != 7 {
		t.Fatalf("summary line: %+v", last)
	}
}

func TestWriteTextMentionsEverything(t *testing.T) {
	tr := New("text")
	s := tr.Start("Pack")
	s.SetDetail("2 CLBs")
	s.End()
	tr.Add("pack.clusters", 2)
	tr.SetGauge("pack.fill", 0.9)
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace text", "Pack", "2 CLBs", "pack.clusters", "pack.fill"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestPublishStampsTraceID checks Trace.Publish delivers on the attached
// bus with the trace's ID, and that a trace without an ID (a CLI run)
// leaves the field empty so its events.jsonl carries no trace_id key.
func TestPublishStampsTraceID(t *testing.T) {
	bus := events.NewBus(256)
	job, cli := New("job"), New("cli")
	job.SetTraceID("a1")
	job.SetEvents(bus)
	cli.SetEvents(bus)
	job.Publish(events.Event{Kind: events.KindFlow, Flow: &events.FlowEvent{Action: "attempt"}})
	cli.Publish(events.Event{Kind: events.KindFlow, Flow: &events.FlowEvent{Action: "attempt"}})
	got := bus.Snapshot()
	if len(got) != 2 || got[0].TraceID != "a1" || got[1].TraceID != "" {
		t.Fatalf("events = %+v, want trace IDs a1 then empty", got)
	}
	line, err := json.Marshal(got[1])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(line), "trace_id") {
		t.Errorf("event without a trace ID serializes one: %s", line)
	}
	// Concurrent publishers (parallel placement seeds, farm workers) share
	// the trace's bus while it is swapped.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				job.Publish(events.Event{Kind: events.KindFlow, Flow: &events.FlowEvent{Action: "attempt"}})
				job.SetEvents(bus)
			}
		}()
	}
	wg.Wait()
	if n := bus.Len(); n != 202 {
		t.Errorf("bus holds %d events after concurrent publishing, want 202", n)
	}
	bus.SetEnabled(false)
	job.Publish(events.Event{Kind: events.KindFlow, Flow: &events.FlowEvent{Action: "retry"}})
	if bus.Len() != 202 {
		t.Error("Publish delivered on a disabled bus")
	}
}

// TestSharedBusHeatmapKeepsRunsApart is the farm case: two runs publish to
// one bus, and the heatmap must never pair one run's placement with the
// other's routing — on a mismatch only the newer run's half is served.
func TestSharedBusHeatmapKeepsRunsApart(t *testing.T) {
	bus := events.NewBus(16)
	a, b := New("a"), New("b")
	a.SetTraceID("a")
	b.SetTraceID("b")
	a.SetEvents(bus)
	b.SetEvents(bus)
	placeMap := func(x int) events.Event {
		return events.Event{Kind: events.KindPlaceMap, PlaceMap: &events.PlaceMap{Cols: 4, Rows: 4,
			CLBs: []events.Cell{{X: x, Y: 1, Used: 1, Capacity: 5}}}}
	}
	a.Publish(placeMap(1))
	b.Publish(placeMap(2))
	a.Publish(events.Event{Kind: events.KindRouteCongestion, RouteCongestion: &events.RouteCongestion{
		Width: 4, Success: true, Segments: []events.Segment{{X: 1, Y: 0, Usage: 1, Capacity: 1}}}})
	h := events.HeatmapFromBus(bus)
	if h == nil || len(h.Channels) != 1 {
		t.Fatalf("heatmap = %+v, want run a's routing half", h)
	}
	if len(h.CLBs) != 0 {
		t.Errorf("heatmap pairs run b's CLBs %+v with run a's channels", h.CLBs)
	}
	// The same run's halves still combine.
	a.Publish(placeMap(3))
	if h := events.HeatmapFromBus(bus); h == nil || len(h.CLBs) != 1 || h.CLBs[0].X != 3 || len(h.Channels) != 1 {
		t.Errorf("heatmap of one run's halves = %+v, want both halves", h)
	}
}

func TestMemSnapshot(t *testing.T) {
	tr := New("mem")
	tr.MemSnapshot()
	g := tr.Gauges()
	if g["mem.total_alloc_bytes"] <= 0 {
		t.Fatalf("mem.total_alloc_bytes = %g, want > 0", g["mem.total_alloc_bytes"])
	}
}
