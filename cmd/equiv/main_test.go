package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fpgaflow/internal/netlist"
)

// wideBLIF is a 64-input gate: the AND of all inputs, or their OR.
func wideBLIF(and bool) string {
	var ins []string
	for i := 0; i < 64; i++ {
		ins = append(ins, "i"+strings.Repeat("x", i/10)+string(rune('0'+i%10)))
	}
	cube := strings.Repeat("1", 64) + " 1"
	if !and {
		cube = strings.Repeat("0", 64) + " 0"
	}
	return ".model wide\n.inputs " + strings.Join(ins, " ") + "\n.outputs o\n.names " +
		strings.Join(ins, " ") + " o\n" + cube + "\n.end\n"
}

// TestOutOfRangeEffortIsUsageError checks that AND64 against OR64 is
// never reported equivalent: a zero vector budget and an exhaustive limit
// of 64 inputs are usage errors (exit 2), and the default check finds the
// difference (exit 1).
func TestOutOfRangeEffortIsUsageError(t *testing.T) {
	dir := t.TempDir()
	tool := filepath.Join(dir, "equiv")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building equiv: %v\n%s", err, out)
	}
	and, or := filepath.Join(dir, "and.blif"), filepath.Join(dir, "or.blif")
	if err := os.WriteFile(and, []byte(wideBLIF(true)), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(or, []byte(wideBLIF(false)), 0o666); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-vectors", "0"}, 2},
		{[]string{"-vectors", "-5"}, 2},
		{[]string{"-exhaustive", "64"}, 2},
		{[]string{"-exhaustive", "-1"}, 2},
		{nil, 1},
	} {
		out, err := exec.Command(tool, append(c.args, and, or)...).CombinedOutput()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != c.code {
			t.Errorf("equiv %v: exit %d, want %d\n%s", c.args, code, c.code, out)
		}
	}
}

// TestPortMismatchKeepsDeclarationOrder checks that the port comparison
// leaves both designs' output lists in declaration order: the equivalence
// check that follows names the first differing output in that order.
func TestPortMismatchKeepsDeclarationOrder(t *testing.T) {
	const src = ".model m\n.inputs b a\n.outputs z y\n.names a b z\n11 1\n.names a b y\n01 1\n.end\n"
	a, err := netlist.ParseBLIF(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := netlist.ParseBLIF(src)
	if err != nil {
		t.Fatal(err)
	}
	if msg := portMismatch(a, b); msg != "" {
		t.Fatalf("identical ports reported as mismatched: %s", msg)
	}
	for _, nl := range []*netlist.Netlist{a, b} {
		if want := []string{"z", "y"}; !reflect.DeepEqual(nl.Outputs, want) {
			t.Errorf("outputs reordered to %v, want %v", nl.Outputs, want)
		}
	}
}
