// Command szxbench regenerates the SZx paper's evaluation artifacts (every
// table and figure of §7 plus the characterization figures of §4-5) on the
// synthetic datasets, printing paper-style tables and optionally writing a
// markdown report.
//
// Usage:
//
//	szxbench                         # run everything at bench scale
//	szxbench -scale 4 -md report.md  # bigger grids, write markdown
//	szxbench -only "Table 3,Fig. 14" # run a subset by artifact ID prefix
//
// Observability: -stats enables codec telemetry and prints a counter report
// to stderr at exit; -stats-http ADDR additionally serves /metrics
// (Prometheus text), /debug/vars, and /debug/pprof on ADDR while the run is
// in flight.
//
// Throughput is measured by perfbench (BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/telemetry"
)

func main() {
	var (
		scale     = flag.Int("scale", 8, "dataset grid divisor (1 = paper-size)")
		seed      = flag.Int64("seed", 20220627, "dataset seed")
		workers   = flag.Int("workers", 0, "workers for multicore tables (0 = all CPUs)")
		quick     = flag.Bool("quick", false, "trimmed sweeps (CI mode)")
		only      = flag.String("only", "", "comma-separated artifact ID prefixes to run")
		mdPath    = flag.String("md", "", "also write a markdown report to this file")
		stats     = flag.Bool("stats", false, "enable telemetry and print a report to stderr at exit")
		statsHTTP = flag.String("stats-http", "", "enable telemetry and serve /metrics, /debug/vars, /debug/pprof on this address")
	)
	flag.Parse()

	if *stats || *statsHTTP != "" {
		telemetry.Enable()
		telemetry.PublishExpvar()
		if *statsHTTP != "" {
			ln, err := net.Listen("tcp", *statsHTTP)
			if err != nil {
				fmt.Fprintf(os.Stderr, "szxbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "szxbench: serving stats on http://%s/metrics\n", ln.Addr())
			go func() { _ = http.Serve(ln, telemetry.DebugHandler()) }()
		}
		if *stats {
			defer func() { fmt.Fprint(os.Stderr, telemetry.Report()) }()
		}
	}

	cfg := experiments.Config{Scale: *scale, Seed: *seed, Workers: *workers, Quick: *quick}
	var filters []string
	if *only != "" {
		filters = strings.Split(*only, ",")
	}
	start := time.Now()
	reports, err := experiments.Run(cfg, filters)
	if err != nil {
		fmt.Fprintf(os.Stderr, "szxbench: %v\n", err)
		os.Exit(1)
	}

	var md strings.Builder
	md.WriteString("# SZx reproduction — regenerated evaluation artifacts\n\n")
	fmt.Fprintf(&md, "Config: scale=%d seed=%d quick=%v — generated in %v\n\n",
		*scale, *seed, *quick, time.Since(start).Round(time.Second))
	for _, r := range reports {
		fmt.Println(r.Render())
		md.WriteString(r.Markdown())
	}
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(md.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "szxbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("markdown report written to %s\n", *mdPath)
	}
}
