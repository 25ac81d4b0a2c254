package events

import (
	"encoding/json"
	"fmt"
	"io"
)

// Heatmap is the machine-readable fabric utilization artifact
// (heatmap.json): per-CLB placement utilization and per-channel-segment
// routing congestion, keyed by the same structural coordinates
// internal/fault uses, derived from the place_map and route_congestion
// events of one run. Either half may be absent when the corresponding
// stage did not complete.
type Heatmap struct {
	Cols int `json:"cols"`
	Rows int `json:"rows"`
	// ChannelWidth is the routed channel width (0 when routing is absent).
	ChannelWidth int `json:"channel_width,omitempty"`

	// CLBs and Pads are the placement half (occupied sites only).
	CLBs []Cell `json:"clbs,omitempty"`
	Pads []Cell `json:"pads,omitempty"`
	// PlaceCost is the final placement cost.
	PlaceCost float64 `json:"place_cost,omitempty"`

	// Channels is the congestion half (occupied wire segments only).
	Channels []Segment `json:"channels,omitempty"`
	// RouteSuccess is true when the routing converged overuse-free.
	RouteSuccess bool `json:"route_success,omitempty"`
	// RouteIterations is how many PathFinder iterations the routing took.
	RouteIterations int `json:"route_iterations,omitempty"`

	// MaxChannelUsage and Overused summarize the congestion half for
	// renderers: the hottest segment's usage and the count of segments
	// above capacity.
	MaxChannelUsage int `json:"max_channel_usage,omitempty"`
	Overused        int `json:"overused,omitempty"`
}

// BuildHeatmap folds a placement map and a congestion map (either may be
// nil) into one heatmap. Returns nil when both are nil.
func BuildHeatmap(pm *PlaceMap, rc *RouteCongestion) *Heatmap {
	if pm == nil && rc == nil {
		return nil
	}
	h := &Heatmap{}
	if pm != nil {
		h.Cols, h.Rows = pm.Cols, pm.Rows
		h.CLBs = append([]Cell(nil), pm.CLBs...)
		h.Pads = append([]Cell(nil), pm.Pads...)
		h.PlaceCost = pm.Cost
	}
	if rc != nil {
		h.ChannelWidth = rc.Width
		h.RouteSuccess = rc.Success
		h.RouteIterations = rc.Iterations
		h.Channels = append([]Segment(nil), rc.Segments...)
		for _, s := range rc.Segments {
			if s.Usage > h.MaxChannelUsage {
				h.MaxChannelUsage = s.Usage
			}
			if s.Usage > s.Capacity {
				h.Overused++
			}
			// Routing may run on a fabric the placement half never saw
			// (standalone route runs); grow the extent from segment keys.
			if s.X > h.Cols {
				h.Cols = s.X
			}
			if s.Y > h.Rows {
				h.Rows = s.Y
			}
		}
	}
	return h
}

// HeatmapFromBus derives the heatmap from a bus's event stream: the latest
// place_map and route_congestion events win. When several runs share the
// bus (farm workers) and those two events come from different
// runs (their TraceIDs differ), only the newer event's half is served —
// one run's CLBs never sit next to another run's channels. Returns nil
// when the stream holds neither (nothing to map).
func HeatmapFromBus(b *Bus) *Heatmap {
	pm, _ := b.Latest(KindPlaceMap)
	rc, _ := b.Latest(KindRouteCongestion)
	if pm.PlaceMap != nil && rc.RouteCongestion != nil && pm.TraceID != rc.TraceID {
		if pm.Seq > rc.Seq {
			rc.RouteCongestion = nil
		} else {
			pm.PlaceMap = nil
		}
	}
	return BuildHeatmap(pm.PlaceMap, rc.RouteCongestion)
}

// WriteJSON writes the heatmap.json document.
func (h *Heatmap) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(h)
}

// ParseHeatmap decodes a heatmap.json document (round-trip of WriteJSON).
func ParseHeatmap(data []byte) (*Heatmap, error) {
	var h Heatmap
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("events: bad heatmap JSON: %w", err)
	}
	return &h, nil
}
