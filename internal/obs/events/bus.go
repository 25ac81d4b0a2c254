package events

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCapacity is the ring-buffer size NewBus uses when given a
// non-positive capacity: enough for the full convergence history of a
// large run (hundreds of temperature steps plus tens of router iterations)
// with room for stage and flow events.
const DefaultCapacity = 4096

// Bus is a bounded, concurrency-safe event stream: publishers stamp events
// into a ring buffer and fan them out to sinks (synchronous callbacks,
// e.g. a JSONL writer) and subscribers (buffered channels, e.g. SSE
// clients; a slow subscriber drops events rather than blocking the flow).
//
// All methods are safe on a nil *Bus, and Publish on a disabled bus is a
// single atomic load — instrumentation sites never need to guard.
type Bus struct {
	enabled atomic.Bool
	dropped atomic.Int64
	start   time.Time

	mu     sync.Mutex
	seq    uint64 // last stamped Seq
	ring   []Event
	next   int // ring write index
	count  int // elements in ring (<= len(ring))
	latest map[Kind]Event
	sinks  []func(Event)
	subs   map[int]chan Event
	subID  int
}

// NewBus creates an enabled bus with the given ring capacity (<= 0 selects
// DefaultCapacity).
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	b := &Bus{
		start:  time.Now(),
		ring:   make([]Event, capacity),
		latest: make(map[Kind]Event),
		subs:   make(map[int]chan Event),
	}
	b.enabled.Store(true)
	return b
}

// Enabled reports whether publishing is live. Hot loops use it to skip
// payload construction entirely: false on a nil bus.
func (b *Bus) Enabled() bool {
	return b != nil && b.enabled.Load()
}

// SetEnabled flips the publish gate; no-op on nil.
func (b *Bus) SetEnabled(on bool) {
	if b != nil {
		b.enabled.Store(on)
	}
}

// Dropped returns how many events were lost to slow subscribers (the ring
// and sinks never drop).
func (b *Bus) Dropped() int64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// Publish stamps the event (Seq, TimeNS) and delivers it to the ring,
// every sink, and every subscriber. No-op on a nil or disabled bus.
// Stamping and delivery happen under the bus lock, so the ring, sinks and
// subscribers all observe events in Seq order.
func (b *Bus) Publish(ev Event) {
	if !b.Enabled() {
		return
	}
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	ev.TimeNS = time.Since(b.start).Nanoseconds()
	b.ring[b.next] = ev
	b.next = (b.next + 1) % len(b.ring)
	if b.count < len(b.ring) {
		b.count++
	}
	b.latest[ev.Kind] = ev
	for _, sink := range b.sinks {
		sink(ev)
	}
	for _, ch := range b.subs {
		select {
		case ch <- ev:
		default:
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// AddSink registers a synchronous per-event callback (e.g. a JSONL
// writer). Sinks must be fast: they run on the publishing goroutine.
func (b *Bus) AddSink(fn func(Event)) {
	if b == nil || fn == nil {
		return
	}
	b.mu.Lock()
	b.sinks = append(b.sinks, fn)
	b.mu.Unlock()
}

// Subscribe registers a live subscriber: the returned channel receives
// every event published after the call (dropping, not blocking, when more
// than buffer events back up), and replay holds the ring contents at
// subscription time in publication order, so late subscribers see history.
func (b *Bus) Subscribe(buffer int) (id int, ch <-chan Event, replay []Event) {
	if b == nil {
		return 0, nil, nil
	}
	if buffer < 1 {
		buffer = 64
	}
	c := make(chan Event, buffer)
	b.mu.Lock()
	b.subID++
	id = b.subID
	b.subs[id] = c
	replay = b.snapshotLocked()
	b.mu.Unlock()
	return id, c, replay
}

// Unsubscribe removes a subscriber and closes its channel.
func (b *Bus) Unsubscribe(id int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if ch, ok := b.subs[id]; ok {
		delete(b.subs, id)
		close(ch)
	}
	b.mu.Unlock()
}

// Subscribers reports the number of live subscribers (leak tests use it to
// verify every departed SSE client unsubscribed).
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Snapshot returns the ring contents, oldest first.
func (b *Bus) Snapshot() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.snapshotLocked()
}

func (b *Bus) snapshotLocked() []Event {
	out := make([]Event, 0, b.count)
	start := b.next - b.count
	if start < 0 {
		start += len(b.ring)
	}
	for i := 0; i < b.count; i++ {
		out = append(out, b.ring[(start+i)%len(b.ring)])
	}
	return out
}

// Latest returns the most recent event of the given kind, surviving ring
// wrap-around (heatmap building relies on this: a long convergence tail
// must not evict the placement map).
func (b *Bus) Latest(kind Kind) (Event, bool) {
	if b == nil {
		return Event{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ev, ok := b.latest[kind]
	return ev, ok
}

// Len returns the number of events currently held in the ring.
func (b *Bus) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}

// JSONLWriter appends one JSON object per event to an io.Writer; install
// with Bus.AddSink. Writes are best-effort (a failed write must not abort
// the flow producing the event) but never interleaved: the bus serializes
// sink calls.
type JSONLWriter struct {
	enc *json.Encoder
}

// NewJSONLWriter wraps w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{enc: json.NewEncoder(w)}
}

// Write encodes one event as a JSON line.
func (j *JSONLWriter) Write(ev Event) {
	_ = j.enc.Encode(ev)
}
