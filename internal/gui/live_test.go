package gui

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"fpgaflow/internal/circuits"
	"fpgaflow/internal/obs/events"
)

// TestLiveIntrospection runs a flow through the GUI and checks the three
// introspection surfaces: /heatmap serves the derived fabric document,
// /events replays the run's telemetry over SSE, and /debug/pprof is
// reachable.
func TestLiveIntrospection(t *testing.T) {
	srv, c := newClient(t)

	// Before any run: heatmap is a 404, pprof index already serves.
	resp, err := c.Get(srv.URL + "/heatmap")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/heatmap before any run: status %d, want 404", resp.StatusCode)
	}
	if body := getBody(t, c, srv.URL+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index missing profiles:\n%s", tail(body))
	}

	b := circuits.RippleAdder(4)
	postForm(t, c, srv.URL+"/upload", map[string]string{"source": b.VHDL, "name": b.Name})
	postForm(t, c, srv.URL+"/pnr", map[string]string{"seed": "1"})

	// The heatmap now reflects the placed-and-routed fabric.
	hbody := getBody(t, c, srv.URL+"/heatmap")
	h, err := events.ParseHeatmap([]byte(hbody))
	if err != nil {
		t.Fatalf("/heatmap: %v", err)
	}
	if h.Cols <= 0 || h.Rows <= 0 || len(h.CLBs) == 0 {
		t.Fatalf("heatmap has no fabric: %dx%d, %d CLBs", h.Cols, h.Rows, len(h.CLBs))
	}
	if !h.RouteSuccess {
		t.Fatal("heatmap reports the routed run as unrouted")
	}

	// /events replays the run's stream over SSE. Read until the replay
	// covers the flow: at least one place_step, one route_iter and one
	// span event must appear.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/events Content-Type = %q", ct)
	}
	seen := map[events.Kind]int{}
	var lastSeq uint64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev events.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE event %q: %v", line, err)
		}
		if err := ev.Validate(); err != nil {
			t.Fatalf("invalid SSE event: %v", err)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("SSE events out of order: seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		seen[ev.Kind]++
		if seen[events.KindPlaceStep] > 0 && seen[events.KindRouteIter] > 0 && seen[events.KindSpan] > 0 {
			break
		}
	}
	for _, k := range []events.Kind{events.KindPlaceStep, events.KindRouteIter, events.KindSpan} {
		if seen[k] == 0 {
			t.Errorf("SSE replay missing %s events (saw %v)", k, seen)
		}
	}
}
