// Command zoobench is the repository's end-to-end benchmark: it plans the
// paper's zoo models through checkmate.Solve and drives the planning
// service's HTTP API, replays every returned schedule against a graph it
// builds itself, and prints one JSON result line.
//
// Usage (from the root of a checkout; run.sh builds and runs it):
//
//	zoobench --workload zoo-lp --seed 1 --seconds 30 --trace 0
//
// Workloads are defined in workloads.json. --trace 0 reports the end-to-end
// metrics; --trace 1 reports the per-layer ones from a second, traced pass.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"
)

// processStart anchors setup_s: the first set-up is timed from here.
var processStart = time.Now()

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "zoobench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload name (see workloads.json)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "load-phase length of the service workload")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	flag.Parse()
	cfg, err := loadConfig()
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var (
		metrics Metrics
		ops     []Op
		counts  []string
	)
	traced := *trace == 1
	if wd, ok := cfg.Zoo[*workload]; ok {
		metrics, ops, counts, err = runZooWorkload(ctx, cfg, *workload, wd, *seed, traced)
	} else if sw, ok := cfg.Service[*workload]; ok {
		metrics, ops, counts, err = runServiceWorkload(ctx, cfg, *workload, sw, *seed, *seconds, traced)
	} else {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(cfg), ", "))
	}
	if err != nil {
		return err
	}
	return printResult(os.Stdout, finish(os.Stdout, cfg, *workload, ops, metrics, counts))
}

func workloadNames(cfg *Config) []string {
	var names []string
	for n := range cfg.Zoo {
		names = append(names, n)
	}
	for n := range cfg.Service {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
