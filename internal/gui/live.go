// Live flow introspection: the GUI server's trace carries a
// convergence-telemetry bus (internal/obs/events) that every flow run
// publishes into, and the server exposes it
// over HTTP — /events streams the raw event feed as server-sent events,
// /heatmap serves the fabric heatmap derived from the latest run, and
// /debug/pprof/* gives the standard Go profiling views of the live server.
package gui

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"

	"fpgaflow/internal/obs/events"
)

// maxSSEReplay caps how much buffered history a new /events subscriber is
// sent before going live.
const maxSSEReplay = 512

// registerLive wires the introspection endpoints onto the GUI mux.
func (s *Server) registerLive(mux *http.ServeMux) {
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/heatmap", s.handleHeatmap)
	// The standard pprof handlers, normally registered on
	// http.DefaultServeMux by the net/http/pprof import side effect; the GUI
	// uses its own mux, so wire them explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// handleEvents streams the telemetry feed as server-sent events: first a
// replay of the buffered history (so a client attaching mid-run sees how it
// got here), then live events as the flow publishes them. One `data:` line
// per event, JSON-encoded with the same schema as events.jsonl; the event
// Seq doubles as the SSE id. The stream ends when the client disconnects or
// the server's write timeout expires — EventSource clients reconnect
// automatically.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	bus := s.Obs.Events()
	id, ch, replay := bus.Subscribe(256)
	defer bus.Unsubscribe(id)
	// Bound the replay: a late subscriber catches up from recent history,
	// not from the bus's entire ring — a large run would otherwise turn
	// every new SSE connection into a multi-megabyte burst.
	if len(replay) > maxSSEReplay {
		replay = replay[len(replay)-maxSSEReplay:]
	}

	write := func(ev events.Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, data); err != nil {
			return false
		}
		return true
	}
	for _, ev := range replay {
		if !write(ev) {
			return
		}
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.closing:
			// Server shutdown: end the stream now so graceful drain never
			// waits on a subscriber that keeps its connection open.
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if !write(ev) {
				return
			}
			fl.Flush()
		}
	}
}

// handleHeatmap serves the fabric heatmap of the most recent run — the same
// document `fpgaflow -events dir/` writes as heatmap.json, derived from the
// latest place_map/route_congestion events on the bus. 404 until a flow has
// placed something.
func (s *Server) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	h := events.HeatmapFromBus(s.Obs.Events())
	if h == nil {
		http.Error(w, "no flow run yet: upload a design and run placement", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := h.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
