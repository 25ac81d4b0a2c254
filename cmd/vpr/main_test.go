package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fpgaflow/internal/arch"
)

// TestFailedRunWritesMetrics routes rand64 on a one-track fabric: vpr must
// exit 1 and still leave a parseable -metrics file holding the counters
// and the spans of the stages that ran, the failed route's carrying its
// error.
func TestFailedRunWritesMetrics(t *testing.T) {
	dir := t.TempDir()
	tool := filepath.Join(dir, "vpr")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building vpr: %v\n%s", err, out)
	}
	a := arch.Paper()
	a.Routing.ChannelWidth = 1
	archFile := filepath.Join(dir, "w1.arch")
	if err := os.WriteFile(archFile, []byte(arch.Format(a)), 0o666); err != nil {
		t.Fatal(err)
	}
	metrics := filepath.Join(dir, "out.json")
	out, err := exec.Command(tool, "-arch", archFile, "-metrics", metrics,
		"../../examples/netlists/rand64.blif").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("vpr at W=1: %v, want exit status 1\n%s", err, out)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("no metrics file after a failed run: %v", err)
	}
	var m struct {
		Counters map[string]float64 `json:"counters"`
		Spans    []struct {
			Path   string `json:"path"`
			Detail string `json:"detail"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("metrics file does not parse: %v\n%s", err, data)
	}
	if m.Counters["check.rules_run"] == 0 || m.Counters["pack.clusters"] == 0 {
		t.Errorf("metrics lack the pack and place counters: %v", m.Counters)
	}
	var paths []string
	for _, sp := range m.Spans {
		paths = append(paths, sp.Path)
	}
	if want := []string{"T-VPack", "VPR place", "VPR route"}; !reflect.DeepEqual(paths, want) {
		t.Errorf("span paths %q, want %q", paths, want)
	} else if d := m.Spans[2].Detail; !strings.Contains(d, "err=") {
		t.Errorf("failed route's span detail %q lacks err=", d)
	}
}
