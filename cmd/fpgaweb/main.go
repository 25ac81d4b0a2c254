// Command fpgaweb serves the browser GUI of the design framework
// (paper §4.2): six stages from file upload to FPGA programming, plus the
// multi-tenant compile-farm job API (/jobs) backed by the crash-safe job
// service in internal/jobs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fpgaflow/internal/gui"
	"fpgaflow/internal/jobs"
	"fpgaflow/internal/obs"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	grace := flag.Duration("grace", 30*time.Second, "graceful-shutdown budget for in-flight requests and job drain")
	jobsDir := flag.String("jobs-dir", "fpgaweb-jobs", "job service state directory (WAL + artifacts); empty disables the /jobs API")
	workers := flag.Int("workers", 2, "job worker pool size")
	queueLimit := flag.Int("queue-limit", 64, "max jobs waiting for a worker before submissions get 429")
	quotaRate := flag.Float64("quota-rate", 1, "per-tenant sustained submissions/second (0 disables rate limiting)")
	quotaBurst := flag.Int("quota-burst", 4, "per-tenant submission burst size")
	showVersion := obs.VersionFlag(flag.CommandLine)
	flag.Parse()
	if *showVersion {
		obs.PrintVersion(os.Stdout, "fpgaweb")
		return
	}
	s := gui.NewServer()
	if *jobsDir != "" {
		tr := obs.New("jobs")
		tr.SetEvents(s.Obs.Events()) // job events share the GUI's /events stream
		svc, err := jobs.Open(jobs.Config{
			Dir:         *jobsDir,
			Workers:     *workers,
			QueueLimit:  *queueLimit,
			TenantRate:  *quotaRate,
			TenantBurst: *quotaBurst,
			Obs:         tr,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s.Jobs, s.JobsTrace = svc, tr
		if svc.TailDamage != nil {
			fmt.Printf("fpgaweb: WAL tail repaired on startup: %v\n", svc.TailDamage)
		}
		fmt.Printf("job API on http://%s/jobs (state in %s, %d workers)\n", *addr, *jobsDir, *workers)
	}
	fmt.Printf("FPGA design framework GUI on http://%s\n", *addr)
	fmt.Printf("machine-readable run metrics on http://%s/metrics (Prometheus: /metrics?format=prom)\n", *addr)
	fmt.Printf("per-job traces on http://%s/jobs/{id}/trace (Perfetto: ?format=chrome)\n", *addr)
	fmt.Printf("live telemetry: http://%s/events (SSE), http://%s/heatmap, http://%s/debug/pprof/\n", *addr, *addr, *addr)

	// SIGINT/SIGTERM drain in-flight requests (a running flow included) and
	// the job service (stop admitting, finish or checkpoint running jobs,
	// flush the WAL) instead of killing them mid-compile.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := s.Run(ctx, *addr, *grace); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("fpgaweb: shut down cleanly")
}
