// Package check is the flow-wide static verification engine: a registry of
// named design-rule checks over the flow's intermediate artifacts (netlist,
// packing, placement, routing, bitstream), each producing structured
// diagnostics. Real CAD flows interpose DRC/ERC-style checks between stages
// so a packing or routing bug surfaces at the stage that caused it rather
// than as a garbled bitstream; this package reproduces that discipline for
// the paper's VHDL -> SIS -> T-VPack -> VPR -> DAGGER pipeline.
//
// The engine is wired in three ways: internal/core runs the relevant rule
// set after every stage (failing fast on error-severity diagnostics),
// cmd/fpgalint checks artifacts standalone, and every run reports
// diagnostic counts through internal/obs. docs/CHECKS.md lists every rule.
package check

import (
	"fmt"
	"sort"
	"strings"

	"fpgaflow/internal/arch"
	"fpgaflow/internal/bitstream"
	"fpgaflow/internal/fault"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/pack"
	"fpgaflow/internal/place"
	"fpgaflow/internal/route"
	"fpgaflow/internal/rrgraph"
)

// Severity ranks a diagnostic.
type Severity int

const (
	// Info is advisory: reported, never fatal.
	Info Severity = iota
	// Warn flags a suspicious construct that is still legal.
	Warn
	// Error is a legality violation; the flow fails fast on it.
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Stage names the flow stage a rule audits the output of.
type Stage string

// The five checked stage boundaries of the flow.
const (
	StageNetlist   Stage = "netlist"
	StagePack      Stage = "pack"
	StagePlace     Stage = "place"
	StageRoute     Stage = "route"
	StageBitstream Stage = "bitstream"
)

// Stages returns every checked stage in flow order.
func Stages() []Stage {
	return []Stage{StageNetlist, StagePack, StagePlace, StageRoute, StageBitstream}
}

// Diagnostic is one finding of one rule.
type Diagnostic struct {
	Stage    Stage    `json:"stage"`
	Rule     string   `json:"rule"`
	Severity Severity `json:"-"`
	// SeverityName serializes the severity for -json consumers.
	SeverityName string `json:"severity"`
	// Object names the offending net, block, node or cluster ("" when the
	// finding is design-wide).
	Object  string `json:"object,omitempty"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	obj := ""
	if d.Object != "" {
		obj = " " + d.Object
	}
	return fmt.Sprintf("%s: %s [%s]%s: %s", d.Stage, d.Severity, d.Rule, obj, d.Message)
}

// Artifacts bundles whatever intermediate results are available to check.
// Rules only run when the artifacts they need are present, so a partially
// filled struct (e.g. just a netlist from a standalone BLIF file) is fine.
type Artifacts struct {
	// BLIF is the raw BLIF text entering the SIS stage; text-level rules
	// (multi-driven nets) run on it because the IR cannot represent the
	// violation (the parser rejects duplicate drivers outright).
	BLIF string
	// Netlist is the current logic network.
	Netlist *netlist.Netlist
	// K bounds logic-node fanin (LUT arity); 0 disables arity rules
	// (pre-mapping networks are allowed arbitrary fanin).
	K int
	// Arch is the target platform (grid bounds, CLB geometry).
	Arch *arch.Arch
	// Packing is the T-VPack output.
	Packing *pack.Packing
	// Problem and Placement are the VPR placement instance and solution.
	Problem   *place.Problem
	Placement *place.Placement
	// Graph is the routing-resource graph; Routing the PathFinder result.
	Graph   *rrgraph.Graph
	Routing *route.Result
	// Bitstream and Encoded are the DAGGER output and its binary form.
	Bitstream *bitstream.Bitstream
	Encoded   []byte
	// Defects is the injected fabric defect map, when the run has one; the
	// defect-aware rules verify no configured resource lands on a defect.
	Defects *fault.DefectMap
	// Disable lists rule IDs to skip (see docs/CHECKS.md on suppression).
	Disable []string

	// The bitstream rules share one decode of Encoded per RunStage pass.
	decoded   *bitstream.Bitstream
	decodeErr error
}

// Decoded returns the bitstream the last RunStage pass decoded from
// Encoded on Graph, or nil when no bitstream rule ran or the decode
// failed, so a caller can reuse that one decode.
func (a *Artifacts) Decoded() *bitstream.Bitstream { return a.decoded }

func (a *Artifacts) disabled(id string) bool {
	for _, d := range a.Disable {
		if d == id {
			return true
		}
	}
	return false
}

// Rule is one named check.
type Rule struct {
	// ID is the stable rule identifier, "<stage-prefix>/<name>".
	ID string
	// Stage is the stage boundary the rule belongs to.
	Stage Stage
	// Severity of the rule's diagnostics.
	Severity Severity
	// Doc is a one-line description of what the rule catches.
	Doc string
	// Applies reports whether the artifacts carry what the rule needs.
	Applies func(*Artifacts) bool
	// Run inspects the artifacts and reports findings.
	Run func(*Artifacts, *reporter)
}

// reporter collects diagnostics for the rule currently running.
type reporter struct {
	rule  *Rule
	diags *[]Diagnostic
}

func (r *reporter) add(object, format string, args ...interface{}) {
	*r.diags = append(*r.diags, Diagnostic{
		Stage:        r.rule.Stage,
		Rule:         r.rule.ID,
		Severity:     r.rule.Severity,
		SeverityName: r.rule.Severity.String(),
		Object:       object,
		Message:      fmt.Sprintf(format, args...),
	})
}

// registry holds every rule, keyed by ID.
var registry = map[string]*Rule{}

func register(r Rule) {
	if _, dup := registry[r.ID]; dup {
		panic("check: duplicate rule " + r.ID)
	}
	rr := r
	registry[r.ID] = &rr
}

// Rules returns every registered rule sorted by stage (flow order) then ID.
func Rules() []*Rule {
	out := make([]*Rule, 0, len(registry))
	for _, r := range registry {
		out = append(out, r)
	}
	stageOrder := map[Stage]int{}
	for i, s := range Stages() {
		stageOrder[s] = i
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := stageOrder[out[i].Stage], stageOrder[out[j].Stage]; a != b {
			return a < b
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// RuleByID returns the rule with the given ID, or nil.
func RuleByID(id string) *Rule { return registry[id] }

// Report is the outcome of a check run.
type Report struct {
	Diags []Diagnostic
	// RulesRun counts the rules whose Applies condition held.
	RulesRun int
}

// RunStage runs every applicable rule of one stage.
func RunStage(stage Stage, a *Artifacts) *Report {
	rep := &Report{}
	// Drop any decode memo from an earlier pass: the caller may have
	// changed Encoded since.
	a.decoded, a.decodeErr = nil, nil
	for _, r := range Rules() {
		if r.Stage != stage || a.disabled(r.ID) || !r.Applies(a) {
			continue
		}
		rep.RulesRun++
		r.Run(a, &reporter{rule: r, diags: &rep.Diags})
	}
	return rep
}

// RunAll runs every applicable rule of every stage, in flow order.
func RunAll(a *Artifacts) *Report {
	rep := &Report{}
	for _, stage := range Stages() {
		sub := RunStage(stage, a)
		rep.Diags = append(rep.Diags, sub.Diags...)
		rep.RulesRun += sub.RulesRun
	}
	return rep
}

// Count returns the number of diagnostics at exactly the given severity.
func (rep *Report) Count(s Severity) int {
	n := 0
	for _, d := range rep.Diags {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// Err returns a non-nil error when the report holds error-severity
// diagnostics, naming the first one (the fail-fast signal for the flow).
func (rep *Report) Err() error {
	var first *Diagnostic
	n := 0
	for i := range rep.Diags {
		if rep.Diags[i].Severity == Error {
			if first == nil {
				first = &rep.Diags[i]
			}
			n++
		}
	}
	if first == nil {
		return nil
	}
	more := ""
	if n > 1 {
		more = fmt.Sprintf(" (and %d more)", n-1)
	}
	obj := ""
	if first.Object != "" {
		obj = " " + first.Object
	}
	return fmt.Errorf("check %s%s: %s%s", first.Rule, obj, first.Message, more)
}

// Record emits the report's diagnostic counts to an observability trace:
// check.rules_run, check.errors, check.warnings, check.infos and a
// per-stage check.<stage>.diags counter. A nil trace is a no-op.
func (rep *Report) Record(tr *obs.Trace) {
	if tr == nil {
		return
	}
	tr.Add("check.rules_run", int64(rep.RulesRun))
	tr.Add("check.errors", int64(rep.Count(Error)))
	tr.Add("check.warnings", int64(rep.Count(Warn)))
	tr.Add("check.infos", int64(rep.Count(Info)))
	for _, d := range rep.Diags {
		tr.Add("check."+string(d.Stage)+".diags", 1)
	}
}

// Format renders the diagnostics one per line ("" when clean).
func (rep *Report) Format() string {
	if len(rep.Diags) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, d := range rep.Diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
