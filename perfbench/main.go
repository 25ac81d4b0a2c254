// Command perfbench is the repository's end-to-end benchmark. It drives
// the flow through its public entry points (core.RunBLIF, core.RunVHDL and
// jobs.Service) on three seeded workloads, checks every output against an
// independent reference, and prints one JSON result line:
//
//	perfbench --workload deep-comb --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of a timed run;
// with --trace 1 it holds the per-layer metrics of a traced run, whose
// span files are written under .bench_build/perfbench/. See README.md for
// the workloads, the metrics and the seeds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workers pins the flow's placement and routing workers (and GOMAXPROCS,
// which sizes them inside farm jobs) so runs on machines with more cores
// measure the same configuration.
const workers = 2

// outRoot holds the job-service state directories and the traced run's
// output files, relative to the checkout root the benchmark runs from.
const outRoot = ".bench_build/perfbench"

// errInvalid marks a run whose workload no longer has the property it was
// chosen for; such a run prints no result.
var errInvalid = errors.New("workload invalid")

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: deep-comb, pipe-escalate or farm-suite")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (the inputs are a function of it)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "minimum measured time of a timed run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag))
	}
	runtime.GOMAXPROCS(workers)

	if err := selfCheckGenerators(); err != nil {
		fatal(err)
	}
	var res *result
	var err error
	switch cfg.workload {
	case "deep-comb", "pipe-escalate":
		res, err = runCore(coreWorkloads[cfg.workload], cfg)
	case "farm-suite":
		res, err = runFarm(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// warnf reports a failed compile on standard error; the result line
// counts it.
func warnf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// selfCheckGenerators asserts that the generators reproduce the committed
// example netlists byte for byte at the example seeds.
func selfCheckGenerators() error {
	for _, c := range []struct {
		path string
		d    *design
	}{
		{"examples/netlists/rand128.blif", genRand128(128)},
		{"examples/netlists/pipe48.blif", genPipe48(48)},
	} {
		want, err := os.ReadFile(c.path)
		if err != nil {
			return fmt.Errorf("generator self-check: %w", err)
		}
		if c.d.blif != string(want) {
			return fmt.Errorf("generator self-check: %s differs from %s", c.d.name, c.path)
		}
	}
	return nil
}

// usage is a snapshot of the process clocks and allocation counter.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	gc    uint32
}

func now() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc, gc: ms.NumGC}
}

// delta is the usage accumulated between two snapshots.
type delta struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	gc    uint32
}

func (u usage) to(v usage) delta {
	return delta{wall: v.wall.Sub(u.wall), cpu: v.cpu - u.cpu, alloc: v.alloc - u.alloc, gc: v.gc - u.gc}
}

func (d *delta) add(e delta) {
	d.wall += e.wall
	d.cpu += e.cpu
	d.alloc += e.alloc
	d.gc += e.gc
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// medianSetup runs setup n times and returns the last state with the
// median setup time; earlier states are released with drop.
func medianSetup[S any](n int, setup func() (S, error), drop func(S)) (S, float64, error) {
	var times []float64
	var st S
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(st)
		}
		t0 := time.Now()
		var err error
		st, err = setup()
		if err != nil {
			return st, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return st, quantile(times, 0.5), nil
}

// qor is the mean of the per-design quality-of-results metrics over the
// workload's fixed input set, each design counted once.
type qor struct {
	n                                               int
	luts, clbs, width, wire, critNS, energyPJ, bits float64
}

func (q *qor) add(luts, clbs, width, wire int, critNS, energyPJ float64, bits int) {
	q.n++
	q.luts += float64(luts)
	q.clbs += float64(clbs)
	q.width += float64(width)
	q.wire += float64(wire)
	q.critNS += critNS
	q.energyPJ += energyPJ
	q.bits += float64(bits)
}

// timed is what a timed run measured.
type timed struct {
	setupS    float64
	latencies []float64 // seconds per compile
	busy      delta     // usage inside the timed region
	attempted int
	good      int
	qor       qor
}

// result renders a timed run's result line with its end-to-end metrics.
func (t *timed) result() *result {
	n := float64(t.attempted)
	q := t.qor
	qn := math.Max(float64(q.n), 1) // QoR counts good compiles only
	m := map[string]metric{
		"setup_s":              {t.setupS, "s"},
		"compile_s_p50":        {quantile(t.latencies, 0.5), "s"},
		"compiles_per_s":       {float64(t.good) / t.busy.wall.Seconds(), "1/s"},
		"cpu_s_per_compile":    {t.busy.cpu.Seconds() / n, "s"},
		"alloc_mb_per_compile": {float64(t.busy.alloc) / 1e6 / n, "MB"},
		"verified_frac":        {float64(t.good) / n, "fraction"},
		"qor_luts":             {q.luts / qn, "LUT"},
		"qor_clbs":             {q.clbs / qn, "CLB"},
		"qor_channel_width":    {q.width / qn, "tracks"},
		"qor_wirelength":       {q.wire / qn, "segments"},
		"qor_critical_path_ns": {q.critNS / qn, "ns"},
		"qor_energy_pj":        {q.energyPJ / qn, "pJ"},
		"qor_bitstream_bits":   {q.bits / qn, "bits"},
	}
	return &result{Correct: t.good == t.attempted, Attempted: t.attempted,
		Failed: t.attempted - t.good, Metrics: m}
}

// outDir is the per-run output directory of a traced run.
func outDir(cfg config) (string, error) {
	dir := fmt.Sprintf("%s/%s-seed%d", outRoot, cfg.workload, cfg.seed)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
