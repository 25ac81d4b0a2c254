// Package jobs is the crash-safe multi-tenant job service layered on the
// hardened flow runner (internal/core): a durable queue whose every state
// transition is committed to an append-only write-ahead log with
// fsync-on-commit, a worker pool running jobs through the retrying runner,
// per-tenant token-bucket admission control with queue-depth backpressure,
// and replay-on-startup recovery so a process killed mid-job resumes with
// no acked job lost and no job completed twice.
//
// The package is the service half of the ROADMAP's compile-farm item: the
// fpgaweb job lifecycle API (POST /jobs, GET /jobs/{id}, DELETE /jobs/{id},
// GET /jobs/{id}/artifacts) is a thin HTTP veneer over Service, and every
// recovery invariant is enforced by the chaos suite in chaos_test.go.
// See docs/ROBUSTNESS.md for the state machine, WAL format and guarantees.
package jobs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"fpgaflow/internal/core"
)

// MaxSourceBytes bounds the design source accepted in a job spec. It
// matches the HTTP-side http.MaxBytesReader limit so a spec that decodes
// here is also submittable over the wire.
const MaxSourceBytes = 4 << 20

// ErrBadSpec is the sentinel wrapped by every spec validation failure, so
// transports can map the whole class to one status code (HTTP 400).
var ErrBadSpec = errors.New("jobs: invalid job spec")

// SpecError reports which field of a submitted spec is unacceptable and
// why. It wraps ErrBadSpec.
type SpecError struct {
	Field  string
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("jobs: invalid job spec: %s: %s", e.Field, e.Reason)
}

// Unwrap ties every SpecError to the ErrBadSpec class.
func (e *SpecError) Unwrap() error { return ErrBadSpec }

// FlowOptions is the serializable subset of core.Options a tenant may set
// per job. It is deliberately pure data: everything here participates in
// the job fingerprint, and replaying a spec with equal options must drive
// an identical flow.
type FlowOptions struct {
	// Seed drives placement and activity estimation (0 is a valid seed).
	Seed int64 `json:"seed,omitempty"`
	// PlaceEffort scales annealing moves (0 selects the flow default).
	PlaceEffort float64 `json:"place_effort,omitempty"`
	// MinChannelWidth searches the smallest routable channel width.
	MinChannelWidth bool `json:"min_channel_width,omitempty"`
	// Profile selects the QoR objective, spelled as for fpgaflow -profile
	// (see core.ParseProfile; "" is balanced).
	Profile core.Profile `json:"profile,omitempty"`
	// SkipVerify disables the closing bitstream equivalence check.
	SkipVerify bool `json:"skip_verify,omitempty"`
	// Retries bounds hardened-runner attempts (0 selects the default
	// policy's three attempts; 1 disables retrying).
	Retries int `json:"retries,omitempty"`
}

// UnmarshalJSON also accepts v1 options, which selected timing-driven
// placement and routing with two booleans instead of a profile: either
// timing_driven_place or timing_driven_route set decodes as the timing
// profile, so v1 specs replayed from the WAL keep running.
func (o *FlowOptions) UnmarshalJSON(data []byte) error {
	type v2 FlowOptions // drops this method, so decoding does not recurse
	var v struct {
		v2
		TimingDrivenPlace bool `json:"timing_driven_place"`
		TimingDrivenRoute bool `json:"timing_driven_route"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*o = FlowOptions(v.v2)
	if v.TimingDrivenPlace || v.TimingDrivenRoute {
		if o.Profile != "" && o.Profile != core.ProfileTiming {
			return &SpecError{Field: "options.profile", Reason: fmt.Sprintf("%q conflicts with the v1 timing_driven_* keys", o.Profile)}
		}
		o.Profile = core.ProfileTiming
	}
	return nil
}

// Spec is one submitted compile job: who wants it, what source to compile,
// and how. The zero value is invalid; Validate (or DecodeSpec) gates every
// entry point.
type Spec struct {
	// Tenant is the submitting principal; quotas and fairness are keyed by
	// it. Lowercase letters, digits, '-' and '_' only, 1..64 bytes.
	Tenant string `json:"tenant"`
	// Name labels the design (optional, informational).
	Name string `json:"name,omitempty"`
	// Source is the design text: VHDL or BLIF, detected like the GUI does.
	Source string `json:"source"`
	// Options tunes the flow run.
	Options FlowOptions `json:"options,omitempty"`
}

// DecodeSpec parses and validates a JSON job spec. Any failure — malformed
// JSON, unknown shape, or an invalid field — comes back as a typed error
// wrapping ErrBadSpec; DecodeSpec never panics on arbitrary input (the
// FuzzDecodeSpec target enforces this).
func DecodeSpec(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		var se *SpecError
		if errors.As(err, &se) {
			return Spec{}, se
		}
		return Spec{}, &SpecError{Field: "body", Reason: err.Error()}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate checks the spec's field constraints. It also normalizes the
// profile spelling ("balanced" becomes ""), so both spellings drive and
// fingerprint as the same flow.
func (s *Spec) Validate() error {
	if s.Tenant == "" {
		return &SpecError{Field: "tenant", Reason: "must be non-empty"}
	}
	if len(s.Tenant) > 64 {
		return &SpecError{Field: "tenant", Reason: "longer than 64 bytes"}
	}
	for _, r := range s.Tenant {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' && r != '_' {
			return &SpecError{Field: "tenant", Reason: fmt.Sprintf("character %q not in [a-z0-9_-]", r)}
		}
	}
	if strings.TrimSpace(s.Source) == "" {
		return &SpecError{Field: "source", Reason: "must be non-empty"}
	}
	if len(s.Source) > MaxSourceBytes {
		return &SpecError{Field: "source", Reason: fmt.Sprintf("%d bytes exceeds the %d-byte limit", len(s.Source), MaxSourceBytes)}
	}
	if len(s.Name) > 256 {
		return &SpecError{Field: "name", Reason: "longer than 256 bytes"}
	}
	o := s.Options
	if o.Retries < 0 || o.Retries > 16 {
		return &SpecError{Field: "options.retries", Reason: "must be in [0, 16]"}
	}
	if o.PlaceEffort < 0 || o.PlaceEffort > 100 {
		return &SpecError{Field: "options.place_effort", Reason: "must be in [0, 100]"}
	}
	p, err := core.ParseProfile(string(o.Profile))
	if err != nil {
		return &SpecError{Field: "options.profile", Reason: err.Error()}
	}
	s.Options.Profile = p
	return nil
}

// Fingerprint is the job's content identity: a hex SHA-256 over the source
// text and every flow-affecting option, length-prefixed so field
// boundaries cannot alias. Two specs with equal fingerprints describe the
// same deterministic compilation (the tenant and display name are
// intentionally excluded), which is what makes crash-replay idempotent:
// re-running a recovered job reproduces the same artifacts — the same
// input+options keying idea rrgraph.Cache uses for RR graphs.
//
// The option string keeps its v1 layout, whose two timing booleans both
// read "profile is timing"; any other non-balanced profile is hashed as one
// more field. Every v1 spec with neither or both timing keys therefore
// keeps its v1 fingerprint.
func (s *Spec) Fingerprint() string {
	h := sha256.New()
	put := func(field string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(field)))
		_, _ = h.Write(n[:]) // hash.Hash writes never fail
		_, _ = h.Write([]byte(field))
	}
	put("v1")
	put(s.Source)
	o := s.Options
	timing := o.Profile == core.ProfileTiming
	put(fmt.Sprintf("%d|%g|%t|%t|%t|%t|%d",
		o.Seed, o.PlaceEffort, o.MinChannelWidth, timing, timing, o.SkipVerify, o.Retries))
	if o.Profile != core.ProfileBalanced && !timing {
		put(string(o.Profile))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// coreOptions maps the spec onto the hardened runner's options. The
// returned options carry no observability or event wiring; the service
// attaches its own per-run trace and bus.
func (s *Spec) coreOptions() core.Options {
	o := core.Options{
		Seed:            s.Options.Seed,
		PlaceEffort:     s.Options.PlaceEffort,
		MinChannelWidth: s.Options.MinChannelWidth,
		Profile:         s.Options.Profile,
		SkipVerify:      s.Options.SkipVerify,
		Retry:           core.DefaultRetryPolicy(),
	}
	if s.Options.Retries > 0 {
		o.Retry.MaxAttempts = s.Options.Retries
	}
	return o
}
