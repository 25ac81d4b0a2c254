// Package gui implements the browser-based graphical user interface of the
// paper (§4.2, Fig. 12): six stages — File Upload, Synthesis, Format
// Translation, Power Estimation, Placement and Routing, and FPGA Program —
// drivable from any web browser against a local or remote server, with no
// operating-system knowledge required. The paper's GUI itself ran in a web
// browser; net/http is the direct Go equivalent.
package gui

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"sync"
	"time"

	"fpgaflow/internal/core"
	"fpgaflow/internal/edif"
	"fpgaflow/internal/jobs"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/obs"
	"fpgaflow/internal/obs/events"
	"fpgaflow/internal/vhdl"
)

// Server holds the GUI state: one design session (source, intermediate
// artifacts, results), mirroring the paper's single-designer workflow.
type Server struct {
	mu sync.Mutex
	// Source is the uploaded design text (VHDL or BLIF).
	Source     string
	SourceName string
	// Result of the last full or partial run.
	Result *core.Result
	// Log accumulates tool output lines.
	Log []string
	// Opts are the flow options edited through the form.
	Opts core.Options
	// LastTrace is the observability trace of the most recent full flow
	// run, served at /metrics.
	LastTrace *obs.Trace
	// Jobs is the crash-safe job service behind the /jobs lifecycle API
	// (nil = the API is disabled). Run drains it on shutdown.
	Jobs *jobs.Service
	// JobsTrace carries the jobs.* counters and queue gauges; /metrics
	// serves it alongside the last flow run's trace.
	JobsTrace *obs.Trace
	// Obs is the server's own trace: HTTP handler latency histograms
	// (http.request_seconds, labeled by route pattern — a fixed, bounded
	// label set, never raw URLs) and request counters. Served by /metrics
	// in both JSON and Prometheus form. Its event bus (Obs.Events) is the
	// server-lifetime convergence-telemetry bus: every flow run's trace
	// and the job service's trace attach it, and /events (SSE) and
	// /heatmap serve from it live.
	Obs *obs.Trace
	// runs counts full flow executions since server start.
	runs int64

	// closing is closed when Run begins its shutdown, waking every live SSE
	// stream so a stuck subscriber cannot hold the drain past its deadline.
	closing   chan struct{}
	closeOnce sync.Once
}

// NewServer returns a GUI server with paper-default options.
func NewServer() *Server {
	s := &Server{Opts: core.Options{Seed: 1}, Obs: obs.New("fpgaweb"), closing: make(chan struct{})}
	s.Obs.SetEvents(events.NewBus(0))
	return s
}

// timed wraps a handler with the HTTP latency histogram. The label is the
// route pattern, never the raw URL — cardinality stays bounded by the
// route table no matter what clients request.
func (s *Server) timed(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := s.Obs.HistogramVec("http.request_seconds", "route").WithLabel(route).StartTimer()
		defer t.ObserveDuration()
		s.Obs.Add("http.requests", 1)
		h(w, r)
	}
}

// Handler returns the HTTP handler implementing the six GUI stages.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.timed("/", s.handleHome))
	mux.HandleFunc("/upload", s.timed("/upload", s.handleUpload))
	mux.HandleFunc("/synthesize", s.timed("/synthesize", s.stageHandler("Synthesis", s.runSynthesis)))
	mux.HandleFunc("/translate", s.timed("/translate", s.stageHandler("Format Translation", s.runTranslate)))
	mux.HandleFunc("/power", s.timed("/power", s.stageHandler("Power Estimation", s.runFull)))
	mux.HandleFunc("/pnr", s.timed("/pnr", s.stageHandler("Placement and Routing", s.runFull)))
	mux.HandleFunc("/program", s.timed("/program", s.handleProgram))
	mux.HandleFunc("/bitstream.bin", s.timed("/bitstream.bin", s.handleBitstream))
	mux.HandleFunc("/layout", s.timed("/layout", s.handleLayout))
	mux.HandleFunc("/docs", s.timed("/docs", s.handleDocs))
	mux.HandleFunc("/metrics", s.timed("/metrics", s.handleMetrics))
	s.registerJobs(mux)
	s.registerLive(mux)
	return mux
}

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>FPGA Design Framework</title>
<style>
body { font-family: sans-serif; margin: 2em; max-width: 70em; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.2em; }
.stage { border: 1px solid #999; padding: 0.8em; margin: 0.6em 0; border-radius: 4px; }
.stage h2 { margin: 0 0 0.5em 0; }
pre { background: #f4f4f4; padding: 0.6em; overflow-x: auto; max-height: 20em; }
textarea { width: 100%; height: 12em; font-family: monospace; }
table { border-collapse: collapse; } td, th { border: 1px solid #ccc; padding: 2px 8px; }
.ok { color: #070; } .err { color: #a00; }
</style></head><body>
<h1>Integrated FPGA Design Framework &mdash; VHDL to bitstream</h1>
<p><a href="/docs">on-line documentation</a></p>

<div class="stage"><h2>1. File Upload</h2>
<form method="post" action="/upload">
<textarea name="source" placeholder="Paste VHDL or BLIF here">{{.Source}}</textarea><br>
<input type="text" name="name" value="{{.SourceName}}" placeholder="design name">
<input type="submit" value="Upload">
</form>
{{if .Source}}<p class="ok">design loaded ({{len .Source}} bytes)</p>{{end}}
</div>

<div class="stage"><h2>2. Synthesis (VHDL Parser + DIVINER)</h2>
<form method="post" action="/synthesize"><input type="submit" value="Run synthesis"></form></div>

<div class="stage"><h2>3. Format Translation (DRUID + E2FMT)</h2>
<form method="post" action="/translate"><input type="submit" value="Translate to BLIF"></form></div>

<div class="stage"><h2>4. Power Estimation (PowerModel)</h2>
<form method="post" action="/power">
clock MHz (0 = max from timing): <input type="text" name="clock" value="{{.ClockMHz}}" size="6">
<input type="submit" value="Estimate power"></form>
{{if .Power}}<table><tr><th>component</th><th>mW</th></tr>
<tr><td>routing</td><td>{{printf "%.4f" .Power.Routing}}</td></tr>
<tr><td>logic</td><td>{{printf "%.4f" .Power.Logic}}</td></tr>
<tr><td>clock</td><td>{{printf "%.4f" .Power.Clock}}</td></tr>
<tr><td>short-circuit</td><td>{{printf "%.4f" .Power.SC}}</td></tr>
<tr><td>leakage</td><td>{{printf "%.4f" .Power.Leak}}</td></tr>
<tr><th>total</th><th>{{printf "%.4f" .Power.Total}}</th></tr></table>{{end}}
</div>

<div class="stage"><h2>5. Placement and Routing (T-VPack + DUTYS + VPR)</h2>
<form method="post" action="/pnr">
seed: <input type="text" name="seed" value="{{.Seed}}" size="4">
min channel width: <input type="checkbox" name="minw" {{if .MinW}}checked{{end}}>
<input type="submit" value="Place and route"></form>
{{if .Metrics}}<p>{{.Metrics}} &mdash; <a href="/layout">floorplan</a></p>{{end}}
</div>

<div class="stage"><h2>6. FPGA Program (DAGGER)</h2>
<form method="post" action="/program"><input type="submit" value="Generate bitstream"></form>
{{if .BitstreamReady}}<p class="ok">bitstream ready: <a href="/bitstream.bin">download</a> ({{.BitstreamBytes}} bytes){{if .Verified}} &mdash; verified equivalent to source{{end}}</p>{{end}}
</div>

<h2>Tool log</h2><pre>{{range .Log}}{{.}}
{{end}}</pre>
</body></html>`))

type pageData struct {
	Source, SourceName string
	Log                []string
	ClockMHz           string
	Seed               string
	MinW               bool
	Metrics            string
	BitstreamReady     bool
	BitstreamBytes     int
	Verified           bool
	Power              *powerRow
}

type powerRow struct {
	Routing, Logic, Clock, SC, Leak, Total float64
}

func (s *Server) page() *pageData {
	d := &pageData{
		Source: s.Source, SourceName: s.SourceName, Log: s.Log,
		ClockMHz: fmt.Sprintf("%.0f", s.Opts.ClockHz/1e6),
		Seed:     strconv.FormatInt(s.Opts.Seed, 10),
		MinW:     s.Opts.MinChannelWidth,
	}
	if r := s.Result; r != nil {
		if r.Routed != nil {
			m := r.Metrics
			d.Metrics = fmt.Sprintf("%d LUTs, %d CLBs, %dx%d grid, W=%d, critical path %.2f ns (%.1f MHz clock, %.1f Mb/s DETFF data rate)",
				m.LUTs, m.CLBs, m.GridW, m.GridH, m.ChannelWidth, m.CriticalPath*1e9, m.MaxClockMHz, m.DataRateMbps)
		}
		if r.Power != nil {
			d.Power = &powerRow{
				Routing: r.Power.DynamicRouting * 1e3, Logic: r.Power.DynamicLogic * 1e3,
				Clock: r.Power.DynamicClock * 1e3, SC: r.Power.ShortCircuit * 1e3,
				Leak: r.Power.Leakage * 1e3, Total: r.Power.Total * 1e3,
			}
		}
		if len(r.Encoded) > 0 {
			d.BitstreamReady = true
			d.BitstreamBytes = len(r.Encoded)
			d.Verified = r.Verified
		}
	}
	return d
}

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := pageTmpl.Execute(w, s.page()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// maxUploadBytes bounds an /upload form body: the job spec's source limit
// plus form-encoding slack. Larger posts are rejected before the server
// buffers them.
const maxUploadBytes = jobs.MaxSourceBytes + 64*1024

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Redirect(w, r, "/", http.StatusSeeOther)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxUploadBytes)
	if err := r.ParseForm(); err != nil {
		http.Error(w, "upload too large or malformed", http.StatusRequestEntityTooLarge)
		return
	}
	s.mu.Lock()
	s.Source = r.FormValue("source")
	s.SourceName = r.FormValue("name")
	s.Result = nil
	s.logf("uploaded %d bytes (%s)", len(s.Source), sourceKind(s.Source))
	s.mu.Unlock()
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func sourceKind(src string) string {
	switch {
	case netlist.IsBLIF(src):
		return "BLIF"
	case edif.IsEDIF(src):
		return "EDIF"
	default:
		return "VHDL"
	}
}

// stageHandler wraps a stage action with form parsing, locking and logging.
func (s *Server) stageHandler(name string, fn func(*http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Redirect(w, r, "/", http.StatusSeeOther)
			return
		}
		s.mu.Lock()
		if err := fn(r); err != nil {
			s.logf("%s: ERROR: %v", name, err)
		} else {
			s.logf("%s: done", name)
		}
		s.mu.Unlock()
		http.Redirect(w, r, "/", http.StatusSeeOther)
	}
}

func (s *Server) logf(format string, args ...interface{}) {
	s.Log = append(s.Log, fmt.Sprintf(format, args...))
	if len(s.Log) > 200 {
		s.Log = s.Log[len(s.Log)-200:]
	}
}

// runSynthesis performs stage 2 only: parse + elaborate, reporting stats.
func (s *Server) runSynthesis(r *http.Request) error {
	if s.Source == "" {
		return fmt.Errorf("no design uploaded")
	}
	if sourceKind(s.Source) != "VHDL" {
		return fmt.Errorf("synthesis needs VHDL input")
	}
	d, err := vhdl.Parse(s.Source)
	if err != nil {
		return err
	}
	nl, err := vhdl.Elaborate(d, "")
	if err != nil {
		return err
	}
	st := nl.Stats()
	s.logf("DIVINER: %s: %d gates, %d FFs, %d inputs, %d outputs",
		nl.Name, st.Logic, st.Latches, st.Inputs, st.Outputs)
	return nil
}

// runTranslate performs the DRUID + E2FMT stages, logging the BLIF size.
func (s *Server) runTranslate(*http.Request) error {
	if s.Source == "" {
		return fmt.Errorf("no design uploaded")
	}
	var nl *netlist.Netlist
	switch sourceKind(s.Source) {
	case "BLIF":
		var err error
		nl, err = netlist.ParseBLIF(s.Source)
		if err != nil {
			return err
		}
	case "EDIF":
		norm, err := edif.Druid(s.Source)
		if err != nil {
			return err
		}
		blif, err := edif.E2FMT(norm)
		if err != nil {
			return err
		}
		s.logf("E2FMT: %d bytes of BLIF", len(blif))
		return nil
	default:
		d, err := vhdl.Parse(s.Source)
		if err != nil {
			return err
		}
		nl, err = vhdl.Elaborate(d, "")
		if err != nil {
			return err
		}
	}
	text, err := edif.Write(nl)
	if err != nil {
		return err
	}
	norm, err := edif.Druid(text)
	if err != nil {
		return err
	}
	blif, err := edif.E2FMT(norm)
	if err != nil {
		return err
	}
	s.logf("DRUID+E2FMT: %d bytes EDIF -> %d bytes BLIF", len(norm), len(blif))
	return nil
}

// runFull executes the complete flow with the current options.
func (s *Server) runFull(r *http.Request) error {
	if s.Source == "" {
		return fmt.Errorf("no design uploaded")
	}
	if v := r.FormValue("seed"); v != "" {
		if seed, err := strconv.ParseInt(v, 10, 64); err == nil {
			s.Opts.Seed = seed
		}
	}
	if v := r.FormValue("clock"); v != "" {
		if mhz, err := strconv.ParseFloat(v, 64); err == nil {
			s.Opts.ClockHz = mhz * 1e6
		}
	}
	s.Opts.MinChannelWidth = r.FormValue("minw") == "on"
	tr := obs.New("fpgaweb")
	tr.SetEvents(s.Obs.Events())
	s.Opts.Obs = tr
	s.runs++
	var res *core.Result
	var err error
	if sourceKind(s.Source) == "BLIF" {
		res, err = core.RunBLIF(s.Source, s.Opts)
	} else {
		res, err = core.RunVHDL(s.Source, s.Opts)
	}
	s.LastTrace = tr
	if res != nil {
		for _, st := range res.Stages {
			s.logf("  %-12s %s", st.Tool, st.Detail)
		}
		s.Result = res
	}
	return err
}

func (s *Server) handleProgram(w http.ResponseWriter, r *http.Request) {
	s.stageHandler("FPGA Program", func(r *http.Request) error {
		if s.Result == nil || len(s.Result.Encoded) == 0 {
			return s.runFull(r)
		}
		s.logf("DAGGER: bitstream %d bytes (sha-less preview %s...)",
			len(s.Result.Encoded), base64.StdEncoding.EncodeToString(s.Result.Encoded[:min(12, len(s.Result.Encoded))]))
		return nil
	})(w, r)
}

func (s *Server) handleBitstream(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Result == nil || len(s.Result.Encoded) == 0 {
		http.Error(w, "no bitstream generated", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", "attachment; filename=design.bit")
	_, _ = w.Write(s.Result.Encoded) // response write errors are client disconnects
}

// handleMetrics serves the observability view of the server. The default
// is JSON: the run count plus the full span/counter summary of the last
// flow execution (the same schema fpgaflow -metrics writes).
// `?format=prom` switches to the Prometheus text exposition format,
// aggregating the server's own trace (HTTP latency), the job service's
// trace (queue wait, WAL fsync, per-tenant counters) and the last flow
// run (stage wall times) into one scrapeable document.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		s.mu.Lock()
		last := s.LastTrace
		s.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WritePrometheus(w, s.Obs, s.JobsTrace, last); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	type jobsDoc struct {
		jobs.Stats
		// Counters and Gauges are the jobs.* namespace from the service's
		// trace (jobs.submitted, jobs.queue_depth, ...).
		Counters map[string]int64   `json:"counters,omitempty"`
		Gauges   map[string]float64 `json:"gauges,omitempty"`
	}
	s.mu.Lock()
	doc := struct {
		Runs int64        `json:"runs"`
		Last *obs.Summary `json:"last_run,omitempty"`
		Jobs *jobsDoc     `json:"jobs,omitempty"`
	}{Runs: s.runs, Last: s.LastTrace.Summary()}
	s.mu.Unlock()
	if s.Jobs != nil {
		doc.Jobs = &jobsDoc{Stats: s.Jobs.Snapshot(),
			Counters: s.JobsTrace.Counters(), Gauges: s.JobsTrace.Gauges()}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// httpServer builds the hardened http.Server for the GUI: header, read and
// write deadlines bound every connection (the write timeout is generous
// because a flow run happens inside the request handler), and idle
// keep-alives are reaped.
func (s *Server) httpServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// ListenAndServe starts the GUI on the given address (no shutdown hook;
// prefer Run for signal-aware serving).
func (s *Server) ListenAndServe(addr string) error {
	return s.httpServer(addr).ListenAndServe()
}

// Run serves the GUI until ctx is cancelled (typically by SIGINT/SIGTERM
// through signal.NotifyContext), then shuts down gracefully: in-flight
// requests — including a running flow — get up to grace to finish before
// connections are closed. Returns nil on a clean shutdown.
func (s *Server) Run(ctx context.Context, addr string, grace time.Duration) error {
	srv := s.httpServer(addr)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Shutdown runs after ctx is already done, so the grace window must not
	// inherit its cancellation — only its values.
	sdCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), grace)
	defer cancel()
	// Wake every live SSE stream before Shutdown: those handlers block on
	// the event bus, not the request body, so a subscriber that never
	// disconnects would otherwise hold Shutdown open for the whole grace
	// window. The drain signal makes them exit immediately.
	s.closeOnce.Do(func() {
		if s.closing != nil {
			close(s.closing)
		}
	})
	err := srv.Shutdown(sdCtx)
	if s.Jobs != nil {
		// Drain the job service under the same deadline: stop admitting,
		// let workers finish or checkpoint, flush the WAL.
		if jerr := s.Jobs.Close(sdCtx); err == nil {
			err = jerr
		}
	}
	if serveErr := <-errc; serveErr != nil && serveErr != http.ErrServerClosed {
		return serveErr
	}
	return err
}
