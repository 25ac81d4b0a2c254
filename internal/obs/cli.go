package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"fpgaflow/internal/obs/events"
)

// CLIFlags bundles the standard observability flags every cmd tool exposes:
//
//	-metrics out.json     write the machine-readable run summary
//	-trace                print the span tree + counters to stderr on exit
//	-cpuprofile out.pprof capture a pprof CPU profile of the run
//	-memprofile out.pprof write a pprof heap profile at flow exit
//	-blockprofile out.pprof
//	                      write a pprof blocking profile (lock/chan waits)
//	-mutexprofile out.pprof
//	                      write a pprof mutex-contention profile
//	-chrometrace out.json write the span tree as a Chrome trace-event file
//	                      (load in Perfetto / chrome://tracing)
//	-events dir           stream the run's telemetry (span starts and ends,
//	                      iteration-level events) to dir/events.jsonl and
//	                      derive dir/heatmap.json at exit
type CLIFlags struct {
	Metrics      string
	TraceText    bool
	CPUProfile   string
	MemProfile   string
	BlockProfile string
	MutexProfile string
	ChromeTrace  string
	Events       string
}

// RegisterCLIFlags declares the observability flags on fs (use
// flag.CommandLine from a main).
func RegisterCLIFlags(fs *flag.FlagSet) *CLIFlags {
	c := &CLIFlags{}
	fs.StringVar(&c.Metrics, "metrics", "", "write machine-readable run metrics to this JSON file")
	fs.BoolVar(&c.TraceText, "trace", false, "print the span/counter trace to stderr on exit")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
	fs.StringVar(&c.BlockProfile, "blockprofile", "", "write a pprof blocking (lock/chan wait) profile to this file at exit")
	fs.StringVar(&c.MutexProfile, "mutexprofile", "", "write a pprof mutex-contention profile to this file at exit")
	fs.StringVar(&c.ChromeTrace, "chrometrace", "", "write the span tree as a Chrome trace-event JSON file (Perfetto-loadable)")
	fs.StringVar(&c.Events, "events", "", "write the run's telemetry stream (events.jsonl + heatmap.json) into this directory")
	return c
}

// Enabled reports whether any observability output was requested.
func (c *CLIFlags) Enabled() bool {
	return c.Metrics != "" || c.TraceText ||
		c.CPUProfile != "" || c.MemProfile != "" ||
		c.BlockProfile != "" || c.MutexProfile != "" ||
		c.ChromeTrace != "" || c.Events != ""
}

// Start creates the run trace, starts profiling and sinks, and returns a
// finish func that must run before exit — it stops the profiles and writes
// every requested output. When -events is set, Start also attaches a live
// event bus with a JSONL sink under the events directory to the trace
// (Trace.Events); finish derives heatmap.json from the stream. When no
// observability flag was given it returns a nil trace (all instrumentation
// no-ops) and a no-op finish. If Start fails part-way, everything it had
// opened is closed and the profiling rates it raised are reset.
func (c *CLIFlags) Start(name string) (*Trace, func() error) {
	if !c.Enabled() {
		return nil, func() error { return nil }
	}
	tr := New(name)

	// closers release what Start opened, in opening order: finish runs them
	// first, and a failing Start runs them before returning.
	var closers []func() error
	fail := func(err error) (*Trace, func() error) {
		for _, f := range closers {
			_ = f() // already failing; the original error wins
		}
		return nil, func() error { return err }
	}
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return fail(fmt.Errorf("obs: start cpu profile: %w", err))
		}
		closers = append(closers, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}
	if c.BlockProfile != "" {
		// Rate 1 records every blocking event — the full-fidelity setting
		// for an opted-in diagnosis run; the closer stops sampling before
		// finish dumps the profile.
		runtime.SetBlockProfileRate(1)
		closers = append(closers, func() error { runtime.SetBlockProfileRate(0); return nil })
	}
	if c.MutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
		closers = append(closers, func() error { runtime.SetMutexProfileFraction(0); return nil })
	}
	if c.Events != "" {
		if err := os.MkdirAll(c.Events, 0o755); err != nil {
			return fail(err)
		}
		f, err := os.Create(filepath.Join(c.Events, "events.jsonl"))
		if err != nil {
			return fail(err)
		}
		bus := events.NewBus(0)
		bus.AddSink(events.NewJSONLWriter(f).Write)
		tr.SetEvents(bus)
		closers = append(closers, func() error {
			// Stop publishers before the sink's file goes away, then derive
			// the heatmap artifact from the stream.
			bus.SetEnabled(false)
			var err error
			if h := events.HeatmapFromBus(bus); h != nil {
				err = writeFile(filepath.Join(c.Events, "heatmap.json"), h.WriteJSON)
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		})
	}

	finish := func() error {
		tr.MemSnapshot()
		var firstErr error
		keep := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		for _, f := range closers {
			keep(f())
		}
		if c.MemProfile != "" {
			keep(writeFile(c.MemProfile, func(w io.Writer) error {
				runtime.GC() // materialize the final live-heap picture
				return pprof.Lookup("heap").WriteTo(w, 0)
			}))
		}
		if c.BlockProfile != "" {
			keep(writeFile(c.BlockProfile, func(w io.Writer) error { return pprof.Lookup("block").WriteTo(w, 0) }))
		}
		if c.MutexProfile != "" {
			keep(writeFile(c.MutexProfile, func(w io.Writer) error { return pprof.Lookup("mutex").WriteTo(w, 0) }))
		}
		if c.ChromeTrace != "" {
			keep(writeFile(c.ChromeTrace, func(w io.Writer) error { return WriteChromeTrace(w, tr.Summary()) }))
		}
		if c.Metrics != "" {
			keep(writeFile(c.Metrics, tr.WriteJSON))
		}
		if c.TraceText {
			keep(tr.WriteText(os.Stderr))
		}
		return firstErr
	}
	return tr, finish
}

// writeFile creates path, fills it with write and closes it, returning the
// first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
