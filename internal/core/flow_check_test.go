package core

import (
	"strings"
	"testing"

	"fpgaflow/internal/obs"
)

// The stage-boundary checker must fail the flow with a named rule ID when a
// corrupt artifact is injected (ISSUE.md acceptance criterion).

const multiDrivenBLIF = `
.model dup
.inputs a b
.outputs y
.names a y
1 1
.names b y
1 1
.end
`

func TestFlowRejectsMultiDrivenNet(t *testing.T) {
	_, err := RunBLIF(multiDrivenBLIF, Options{})
	if err == nil {
		t.Fatal("flow accepted a multi-driven net")
	}
	if !strings.Contains(err.Error(), "net/multi-driven") {
		t.Fatalf("error %q does not name rule net/multi-driven", err)
	}
}

func TestFlowDisableChecks(t *testing.T) {
	_, err := RunBLIF(multiDrivenBLIF, Options{
		DisableChecks: []string{"net/multi-driven"},
	})
	if err == nil {
		t.Fatal("parser accepted a multi-driven net")
	}
	if strings.Contains(err.Error(), "net/multi-driven") {
		t.Fatalf("disabled rule still fired: %v", err)
	}
}

func TestFlowChecksRecordCounters(t *testing.T) {
	blif := `
.model clean
.inputs a b c
.outputs y
.names a b t
11 1
.names t c y
1- 1
-1 1
.end
`
	tr := obs.New("check-flow-test")
	_, err := RunBLIF(blif, Options{Seed: 3, Obs: tr})
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Counters()
	if c["check.rules_run"] == 0 {
		t.Error("check.rules_run counter missing from the flow trace")
	}
	if c["check.errors"] != 0 {
		t.Errorf("clean flow recorded %d check errors", c["check.errors"])
	}
}
