package fpgaflow

// Integration test for the standalone tool binaries: builds every cmd/ tool
// and drives the paper's complete pipeline through them, the way a user at
// the command line would (the "Modularity" feature of §4.1).

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fpgaflow/internal/circuits"
)

func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	return dir
}

func runTool(t *testing.T, bin string, stdin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", filepath.Base(bin), args, err, stderr.String())
	}
	return stdout.String()
}

func TestCommandLinePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	tool := func(name string) string { return filepath.Join(bin, name) }
	vhdl := circuits.RippleAdder(4).VHDL

	// vparse accepts the design and rejects garbage.
	if out := runTool(t, tool("vparse"), vhdl); !strings.Contains(out, "OK") {
		t.Fatalf("vparse: %q", out)
	}
	bad := exec.Command(tool("vparse"))
	bad.Stdin = strings.NewReader("entity broken is port (")
	if err := bad.Run(); err == nil {
		t.Fatal("vparse accepted broken source")
	}

	// The chained pipeline: diviner | druid | e2fmt | sisopt | dagger.
	edif := runTool(t, tool("diviner"), vhdl)
	if !strings.HasPrefix(strings.TrimSpace(edif), "(edif") {
		t.Fatalf("diviner output not EDIF:\n%.200s", edif)
	}
	normalized := runTool(t, tool("druid"), edif)
	blif := runTool(t, tool("e2fmt"), normalized)
	if !strings.Contains(blif, ".model") {
		t.Fatalf("e2fmt output not BLIF:\n%.200s", blif)
	}
	mapped := runTool(t, tool("sisopt"), blif, "-k", "4")
	if !strings.Contains(mapped, ".names") {
		t.Fatalf("sisopt output empty:\n%.200s", mapped)
	}

	// tvpack reports clusters; vpr places and routes; powermodel reports.
	packed := runTool(t, tool("tvpack"), mapped)
	if !strings.Contains(packed, "cluster 0:") {
		t.Fatalf("tvpack: %q", packed)
	}
	vprOut := runTool(t, tool("vpr"), mapped, "-min-w")
	if !strings.Contains(vprOut, "critical path") || !strings.Contains(vprOut, "minimum channel width") {
		t.Fatalf("vpr: %q", vprOut)
	}
	powerOut := runTool(t, tool("powermodel"), mapped, "-clock", "50")
	if !strings.Contains(powerOut, "total") {
		t.Fatalf("powermodel: %q", powerOut)
	}

	// dagger produces a bitstream file and can reverse it.
	mappedFile := filepath.Join(bin, "mapped.blif")
	if err := os.WriteFile(mappedFile, []byte(mapped), 0o644); err != nil {
		t.Fatal(err)
	}
	bit := filepath.Join(bin, "design.bit")
	dOut := runTool(t, tool("dagger"), "", "-o", bit, mappedFile)
	if !strings.Contains(dOut, "verified: true") {
		t.Fatalf("dagger: %q", dOut)
	}
	extracted := runTool(t, tool("dagger"), "", "-extract", bit)
	if !strings.Contains(extracted, ".model") {
		t.Fatalf("dagger -extract: %q", extracted)
	}
	// equiv confirms the extracted netlist matches the mapped one.
	extractedFile := filepath.Join(bin, "extracted.blif")
	if err := os.WriteFile(extractedFile, []byte(extracted), 0o644); err != nil {
		t.Fatal(err)
	}
	eq := runTool(t, tool("equiv"), "", mappedFile, extractedFile)
	if !strings.Contains(eq, "EQUIVALENT") {
		t.Fatalf("equiv: %q", eq)
	}

	// dutys emits a parseable architecture file.
	archFile := filepath.Join(bin, "fpga.arch")
	archText := runTool(t, tool("dutys"), "", "-rows", "6", "-cols", "6")
	if err := os.WriteFile(archFile, []byte(archText), 0o644); err != nil {
		t.Fatal(err)
	}
	check := runTool(t, tool("dutys"), "", "-check", archFile)
	if !strings.Contains(check, "OK") {
		t.Fatalf("dutys -check: %q", check)
	}

	// The one-shot driver.
	full := runTool(t, tool("fpgaflow"), vhdl, "-timing")
	if !strings.Contains(full, "bitstream equivalent to source") {
		t.Fatalf("fpgaflow: %q", full)
	}
	// -timing aliases -profile timing; pairing it with another profile is
	// a usage error, not a silently mixed objective.
	err := exec.Command(tool("fpgaflow"), "-timing", "-profile", "min-energy", "design.vhd").Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("fpgaflow -timing -profile min-energy: %v, want exit status 2", err)
	}
}
