// Package events is the iteration-level telemetry layer of the flow: a
// typed, low-overhead event stream published from the CAD hot loops (one
// event per annealing temperature step, one per PathFinder iteration, one
// per flow stage or hardened-runner decision) plus fabric heatmaps derived
// from the same stream.
//
// The package sits below internal/obs on purpose: a run's Bus rides on its
// obs.Trace (Trace.SetEvents), and the flow's layers publish through
// Trace.Publish. Payloads are pure data (structural coordinates and
// numbers, the same keys internal/fault uses), so consumers — the fpgaflow
// -events sink, cmd/qorviz, the fpgaweb SSE endpoint — can replay, persist
// and render the stream without touching CAD types.
//
// Publishing is gated by an atomic enabled flag: a disabled or nil *Bus
// costs one nil check plus one atomic load per call site, so the hot loops
// carry the instrumentation unconditionally (benchgate's QoR gate and
// BenchmarkRoute hold the no-subscriber overhead under 2%).
package events

import (
	"encoding/json"
	"fmt"
)

// Kind discriminates event payloads. Exactly one payload pointer on Event
// is non-nil, and it is the one matching the Kind.
type Kind string

const (
	// KindPlaceStep is one annealing temperature step (place_step).
	KindPlaceStep Kind = "place_step"
	// KindPlaceMap is the final placement occupancy map (place_map).
	KindPlaceMap Kind = "place_map"
	// KindRouteIter is one PathFinder rip-up-and-reroute iteration
	// (route_iter).
	KindRouteIter Kind = "route_iter"
	// KindRouteCongestion is the per-channel-segment usage map at the end
	// of a routing run (route_congestion).
	KindRouteCongestion Kind = "route_congestion"
	// KindStage marks a flow stage starting or ending (stage).
	KindStage Kind = "stage"
	// KindFlow is a hardened-runner decision: attempt, retry, escalation
	// (flow).
	KindFlow Kind = "flow"
	// KindJob is a job-service lifecycle transition: submitted, start,
	// requeued, cancel, done, recovered (job).
	KindJob Kind = "job"
	// KindQoR is the end-of-flow quality-of-results record: channel width,
	// wirelength, critical-path delay and energy per cycle, tagged with
	// the optimization profile that produced them (qor).
	KindQoR Kind = "qor"
)

// PlaceStep is the annealer's per-temperature telemetry: where the VPR
// adaptive schedule is on its cooling curve and how placement cost is
// converging.
type PlaceStep struct {
	// Seed identifies the annealing run (PlaceBest anneals several seeds
	// concurrently into one stream).
	Seed int64 `json:"seed"`
	// Step is the 1-based temperature step index.
	Step int `json:"step"`
	// Temperature is the annealing temperature for this step.
	Temperature float64 `json:"temperature"`
	// Cost is the bounding-box cost after the step's moves.
	Cost float64 `json:"cost"`
	// AcceptRate is the fraction of attempted moves accepted this step.
	AcceptRate float64 `json:"accept_rate"`
	// RangeLimit is the move range limit (rlim) after this step's update.
	RangeLimit float64 `json:"range_limit"`
	// Moves is the number of moves attempted this step.
	Moves int `json:"moves"`
}

// Cell is one grid site's utilization, keyed by structural coordinates
// (the same keys internal/fault.SiteRef uses).
type Cell struct {
	X int `json:"x"`
	Y int `json:"y"`
	// Used is the occupied capacity: BLEs in the cluster for a logic site,
	// pad sub-slots in use for an I/O site.
	Used int `json:"used"`
	// Capacity is the site's total capacity (cluster size N, or IORate).
	Capacity int `json:"capacity"`
}

// PlaceMap is the final placement occupancy of the fabric.
type PlaceMap struct {
	Seed int64 `json:"seed"`
	Cols int   `json:"cols"`
	Rows int   `json:"rows"`
	// Cost is the final placement cost.
	Cost float64 `json:"cost"`
	// CLBs lists every occupied logic site.
	CLBs []Cell `json:"clbs"`
	// Pads lists every I/O site with at least one pad placed.
	Pads []Cell `json:"pads,omitempty"`
}

// RouteIter is PathFinder's per-iteration telemetry: the overuse decay
// curve that decides whether a routing converges and how hard it works.
type RouteIter struct {
	// Iter is the 1-based rip-up-and-reroute iteration.
	Iter int `json:"iter"`
	// Overused counts nodes above capacity after the iteration.
	Overused int `json:"overused"`
	// OveruseSum is the total units of overuse (sum of usage-capacity over
	// overused nodes).
	OveruseSum int `json:"overuse_sum"`
	// PresFac is the present-congestion factor the iteration searched with.
	PresFac float64 `json:"pres_fac"`
	// Wirelength is the wire segments occupied after the iteration.
	Wirelength int `json:"wirelength"`
	// HeapPops is the priority-queue pops spent this iteration (search
	// effort).
	HeapPops int64 `json:"heap_pops"`
	// DirtyNets is how many nets were rerouted this iteration.
	DirtyNets int `json:"dirty_nets"`
}

// Segment is one channel wire segment's usage, keyed by the same
// structural coordinates internal/fault.WireRef uses: low tile coordinate
// of the segment plus track.
type Segment struct {
	// Vertical selects a CHANY wire; false means CHANX.
	Vertical bool `json:"vertical"`
	X        int  `json:"x"`
	Y        int  `json:"y"`
	Track    int  `json:"track"`
	// Usage is the number of nets occupying the segment.
	Usage int `json:"usage"`
	// Capacity is the segment's legal capacity (usually 1).
	Capacity int `json:"capacity"`
}

// RouteCongestion is the routing congestion map at the end of a Route run
// (successful or not — an unroutable map shows where the pressure is).
type RouteCongestion struct {
	// Width is the channel width routed against.
	Width int `json:"width"`
	// Iterations is how many PathFinder iterations ran.
	Iterations int `json:"iterations"`
	// Success is true when no resource ended overused.
	Success bool `json:"success"`
	// Segments lists every occupied channel wire segment.
	Segments []Segment `json:"segments"`
}

// StageEvent marks a flow stage boundary.
type StageEvent struct {
	// Stage is the flow tool name ("VPR place", "DAGGER", ...).
	Stage string `json:"stage"`
	// Phase is "start" or "end".
	Phase string `json:"phase"`
	// Err is the stage's failure message ("" on success); only meaningful
	// on the end event.
	Err string `json:"err,omitempty"`
	// WallNS is the stage's wall time; only set on the end event.
	WallNS int64 `json:"wall_ns,omitempty"`
}

// FlowEvent is a hardened-runner decision.
type FlowEvent struct {
	// Action is "attempt", "retry" or "escalate".
	Action string `json:"action"`
	// Attempt is the 1-based flow attempt the action belongs to.
	Attempt int `json:"attempt"`
	// Seed is the placement seed the attempt runs with.
	Seed int64 `json:"seed,omitempty"`
	// Reason annotates retries and escalations with the failure that
	// triggered them.
	Reason string `json:"reason,omitempty"`
}

// JobEvent is one job-service lifecycle transition (internal/jobs): the
// compile farm publishes these alongside the convergence telemetry of the
// flows it runs, so one SSE stream shows both the farm and the CAD.
type JobEvent struct {
	// ID is the job identifier ("j000042").
	ID string `json:"id"`
	// Tenant is the submitting principal.
	Tenant string `json:"tenant"`
	// Action is the transition: "submitted", "start", "requeued",
	// "cancel", "done", "recovered".
	Action string `json:"action"`
	// State is the job state after the transition.
	State string `json:"state"`
	// Attempt is the execution attempt the transition belongs to.
	Attempt int `json:"attempt,omitempty"`
	// Reason annotates failures and cancellations.
	Reason string `json:"reason,omitempty"`
}

// QoREvent is the end-of-flow quality-of-results summary: one per
// completed flow, carrying exactly the numbers the golden QoR suite and
// benchgate's regression gates compare (so telemetry consumers see the
// same delay/energy figures the gates enforce).
type QoREvent struct {
	// Design is the netlist's top model name.
	Design string `json:"design"`
	// Profile is the optimization profile ("" = balanced, "timing",
	// "min-delay", "min-energy", "min-area").
	Profile string `json:"profile,omitempty"`
	// ChannelWidth is the routed channel width.
	ChannelWidth int `json:"channel_width"`
	// Wirelength is the wire segments occupied by the final routing.
	Wirelength int `json:"wirelength"`
	// CriticalPathNS is the critical-path delay in nanoseconds.
	CriticalPathNS float64 `json:"critical_path_ns"`
	// PowerMW is the estimated total power in milliwatts.
	PowerMW float64 `json:"power_mw"`
	// EnergyPJ is the energy per clock cycle in picojoules.
	EnergyPJ float64 `json:"energy_pj"`
}

// Event is one element of the telemetry stream. Seq and TimeNS are stamped
// by the bus at publish time; exactly one payload field is non-nil.
type Event struct {
	// Seq is the bus-wide publication sequence number (1-based).
	Seq uint64 `json:"seq"`
	// TimeNS is the offset from bus creation, in nanoseconds.
	TimeNS int64 `json:"t_ns"`
	Kind   Kind  `json:"kind"`
	// TraceID is the publishing run's correlation ID (obs.Trace.Publish
	// stamps it; empty for runs without one, e.g. CLI runs). Farm jobs
	// sharing one bus are told apart by it.
	TraceID string `json:"trace_id,omitempty"`

	PlaceStep       *PlaceStep       `json:"place_step,omitempty"`
	PlaceMap        *PlaceMap        `json:"place_map,omitempty"`
	RouteIter       *RouteIter       `json:"route_iter,omitempty"`
	RouteCongestion *RouteCongestion `json:"route_congestion,omitempty"`
	Stage           *StageEvent      `json:"stage,omitempty"`
	Flow            *FlowEvent       `json:"flow,omitempty"`
	Job             *JobEvent        `json:"job,omitempty"`
	QoR             *QoREvent        `json:"qor,omitempty"`
}

// Validate checks the Kind/payload pairing invariant.
func (e *Event) Validate() error {
	var want Kind
	set := 0
	if e.PlaceStep != nil {
		want, set = KindPlaceStep, set+1
	}
	if e.PlaceMap != nil {
		want, set = KindPlaceMap, set+1
	}
	if e.RouteIter != nil {
		want, set = KindRouteIter, set+1
	}
	if e.RouteCongestion != nil {
		want, set = KindRouteCongestion, set+1
	}
	if e.Stage != nil {
		want, set = KindStage, set+1
	}
	if e.Flow != nil {
		want, set = KindFlow, set+1
	}
	if e.Job != nil {
		want, set = KindJob, set+1
	}
	if e.QoR != nil {
		want, set = KindQoR, set+1
	}
	if set != 1 {
		return fmt.Errorf("events: %d payloads set (want exactly 1)", set)
	}
	if want != e.Kind {
		return fmt.Errorf("events: kind %q does not match payload %q", e.Kind, want)
	}
	return nil
}

// Decode parses one JSON event (the inverse of json.Marshal on Event) and
// validates the kind/payload pairing.
func Decode(data []byte) (Event, error) {
	var e Event
	if err := json.Unmarshal(data, &e); err != nil {
		return Event{}, fmt.Errorf("events: bad event JSON: %w", err)
	}
	if err := e.Validate(); err != nil {
		return Event{}, err
	}
	return e, nil
}
