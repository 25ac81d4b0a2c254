package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"fpgaflow/internal/obs/events"
)

// TestCLIFlagsProfiles exercises the -cpuprofile and -memprofile paths end
// to end: both files must exist after finish and carry the gzip magic that
// every pprof profile starts with.
func TestCLIFlagsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	c := &CLIFlags{CPUProfile: cpu, MemProfile: mem}
	if !c.Enabled() {
		t.Fatal("profile flags should enable observability")
	}
	tr, finish := c.Start("test")
	if tr == nil {
		t.Fatal("Start returned nil trace with profiling on")
	}
	// Some profiled work so the CPU profile is non-degenerate.
	sink := 0
	for i := 0; i < 1e6; i++ {
		sink += i * i
	}
	_ = sink
	tr.Start("work").End()
	if err := finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: not a gzipped pprof profile (starts %x)", path, b[:min(2, len(b))])
		}
	}
}

// TestCLIFlagsEventsDir checks the -events wiring: Start attaches a bus
// with a JSONL sink to the trace it returns, finish disables it and derives
// heatmap.json from the stream.
func TestCLIFlagsEventsDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ev")
	c := &CLIFlags{Events: dir}
	tr, finish := c.Start("test")
	bus := tr.Events()
	if !bus.Enabled() {
		t.Fatal("Start did not attach an enabled event bus to the trace")
	}
	tr.Publish(events.Event{Kind: events.KindPlaceMap, PlaceMap: &events.PlaceMap{
		Cols: 2, Rows: 2, CLBs: []events.Cell{{X: 1, Y: 1, Used: 3, Capacity: 4}},
	}})
	if err := finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if bus.Enabled() {
		t.Error("finish left the bus enabled after closing its sink")
	}
	if _, err := os.Stat(filepath.Join(dir, "events.jsonl")); err != nil {
		t.Errorf("events.jsonl missing: %v", err)
	}
	hb, err := os.ReadFile(filepath.Join(dir, "heatmap.json"))
	if err != nil {
		t.Fatalf("heatmap.json missing: %v", err)
	}
	h, err := events.ParseHeatmap(hb)
	if err != nil {
		t.Fatalf("heatmap.json invalid: %v", err)
	}
	if h.Cols != 2 || h.Rows != 2 || len(h.CLBs) != 1 {
		t.Errorf("heatmap = %dx%d with %d CLBs, want 2x2 with 1", h.Cols, h.Rows, len(h.CLBs))
	}
}

// TestCLIFlagsStartFailureReleases checks a Start that fails part-way
// releases what it had already set up: with -events pointing below a
// regular file, the -jsonl file opened earlier must be closed again and
// the raised block/mutex sampling rates reset.
func TestCLIFlagsStartFailureReleases(t *testing.T) {
	dir := t.TempDir()
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	jsonlPath := filepath.Join(dir, "spans.jsonl")
	c := &CLIFlags{JSONL: jsonlPath, Events: filepath.Join(notDir, "ev"),
		BlockProfile: filepath.Join(dir, "block.pprof"), MutexProfile: filepath.Join(dir, "mutex.pprof")}
	tr, finish := c.Start("test")
	if tr != nil {
		t.Fatal("Start returned a trace although -events cannot be created")
	}
	if err := finish(); err == nil {
		t.Fatal("finish of a failed Start returned no error")
	}
	if got := runtime.SetMutexProfileFraction(-1); got != 0 {
		t.Errorf("mutex profile fraction = %d after failed Start, want 0", got)
	}
	if runtime.GOOS != "linux" {
		return // open descriptors are inspected through /proc/self/fd
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == jsonlPath {
			t.Errorf("-jsonl file %s still open (fd %s) after failed Start", jsonlPath, fd.Name())
		}
	}
}

// TestCLIFlagsContentionProfiles exercises -blockprofile and -mutexprofile:
// Start must raise the runtime sampling rates, finish must reset them and
// write gzipped pprof files.
func TestCLIFlagsContentionProfiles(t *testing.T) {
	dir := t.TempDir()
	blk := filepath.Join(dir, "block.pprof")
	mtx := filepath.Join(dir, "mutex.pprof")
	c := &CLIFlags{BlockProfile: blk, MutexProfile: mtx}
	if !c.Enabled() {
		t.Fatal("contention profile flags should enable observability")
	}
	tr, finish := c.Start("test")
	// Some lock traffic so the profiles have something to sample.
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				mu.Lock()
				mu.Unlock() //nolint:staticcheck // contention on purpose
			}
		}()
	}
	wg.Wait()
	tr.Start("work").End()
	if err := finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	for _, path := range []string{blk, mtx} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: not a gzipped pprof profile (starts %x)", path, b[:min(2, len(b))])
		}
	}
	if runtime.SetMutexProfileFraction(-1) != 0 {
		t.Error("finish left the mutex profile fraction raised")
	}
}

// TestCLIFlagsChromeTrace checks -chrometrace writes a loadable
// trace-event document covering the run's spans.
func TestCLIFlagsChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.chrome.json")
	c := &CLIFlags{ChromeTrace: path}
	if !c.Enabled() {
		t.Fatal("-chrometrace should enable observability")
	}
	tr, finish := c.Start("test")
	tr.Start("stage-a").End()
	if err := finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("chrome trace not written: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "stage-a" {
			found = true
		}
	}
	if !found {
		t.Errorf("chrome trace has no event for the run's span: %s", b)
	}
}

// TestRegisterCLIFlags checks the flag surface parses, including the two
// new flags, and that Enabled stays false for an empty set.
func TestRegisterCLIFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := RegisterCLIFlags(fs)
	ver := VersionFlag(fs)
	if err := fs.Parse([]string{"-memprofile", "m.pprof", "-events", "evdir", "-version"}); err != nil {
		t.Fatal(err)
	}
	if c.MemProfile != "m.pprof" || c.Events != "evdir" || !*ver {
		t.Fatalf("flags not bound: %+v version=%v", c, *ver)
	}
	if !(&CLIFlags{}).Enabled() == false {
		t.Error("zero CLIFlags must report disabled")
	}
}

// TestBuildInfo checks the provenance values are present and stable.
func TestBuildInfo(t *testing.T) {
	bi := ReadBuild()
	if bi.GoVersion == "" {
		t.Error("BuildInfo.GoVersion empty")
	}
	if bi != ReadBuild() {
		t.Error("ReadBuild not stable across calls")
	}
	// The metrics summary must carry the header.
	sum := New("t").Summary()
	if sum.Build == nil || sum.Build.GoVersion != bi.GoVersion {
		t.Errorf("Summary build header = %+v, want %+v", sum.Build, bi)
	}
}
