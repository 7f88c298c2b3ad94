// Command checkmate-solve optimizes a single rematerialization instance:
// pick a model, batch size, and memory budget; get back the optimal (or
// approximate) schedule, its overhead, and optionally the full execution
// plan.
//
// Example:
//
//	checkmate-solve -model unet -batch 4 -budget 16GiB -segments 12
//	checkmate-solve -model vgg16 -batch 16 -budget 0.8 -method approx -plan
//
// A fractional -budget (0 < b ≤ 1) is interpreted as a fraction of the
// checkpoint-all peak.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/checkmate"
	"repro/internal/nets"
	"repro/internal/service/api"
	"repro/internal/service/client"
	"repro/internal/telemetry"
)

func main() {
	var (
		model    = flag.String("model", "vgg16", "model name ("+strings.Join(checkmate.Models(), ", ")+")")
		batch    = flag.Int("batch", 4, "batch size")
		budget   = flag.String("budget", "16GiB", "memory budget (e.g. 16GiB, 4GB, 1073741824) or fraction (0..1] of the schedulable range between the minimum feasible budget and the checkpoint-all peak")
		segments = flag.Int("segments", 12, "coarse block count for the forward graph (0 = full layer granularity)")
		device   = flag.String("device", "v100", "cost model device: v100, tpu, cpu")
		flops    = flag.Bool("flops", false, "use static FLOP costs instead of the roofline model")
		methodFl = flag.String("method", "", "solver method ("+strings.Join(checkmate.MethodNames(), ", ")+"); empty = optimal")
		limit    = flag.Duration("timelimit", 60*time.Second, "ILP time limit")
		gap      = flag.Float64("gap", 0.01, "accepted relative optimality gap")
		threads  = flag.Int("threads", 1, "parallel branch-and-bound workers (1 = serial)")
		showPlan = flag.Bool("plan", false, "print the generated execution plan")
		quiet    = flag.Bool("quiet", false, "suppress live solver progress on stderr")
		res      = flag.String("input", "", "override input resolution as CxHxW, e.g. 3x416x608")
		tracePth = flag.String("trace", "", "write a Chrome trace_event JSON of the solve to this file (open in chrome://tracing or Perfetto)")

		// Remote sweep mode: stream a budget sweep from a planning service,
		// rendering each point as it completes.
		server  = flag.String("server", "", "planning service base URL(s), comma-separated for failover across a fleet; enables -sweep/-budgets")
		sweepN  = flag.Int("sweep", 0, "sweep N evenly spaced budgets on the service at -server instead of solving one budget locally")
		budgets = flag.String("budgets", "", "sweep these explicit budgets (comma-separated, same formats as -budget) on the service at -server")
	)
	flag.Parse()

	opts := checkmate.Options{Batch: *batch, Device: *device, FLOPsCost: *flops, CoarseSegments: *segments}
	if *res != "" {
		shape, err := parseShape(*res)
		if err != nil {
			fatal(err)
		}
		opts.Input = shape
	}
	wl, err := checkmate.Load(*model, opts)
	if err != nil {
		fatal(err)
	}
	peak := wl.CheckpointAllPeak()
	minB := wl.MinBudget()
	bud, err := parseBudget(*budget, minB, peak)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model=%s batch=%d graph: %d nodes, %d edges\n", *model, *batch, wl.Graph.Len(), wl.Graph.NumEdges())
	fmt.Printf("checkpoint-all peak %s, minimum feasible budget %s, solving at %s\n",
		fmtBytes(peak), fmtBytes(minB), fmtBytes(bud))

	method := checkmate.Method(*methodFl)
	if !checkmate.ValidMethod(method) {
		fatal(fmt.Errorf("unknown method %q (valid: %s)", method, strings.Join(checkmate.MethodNames(), ", ")))
	}

	if *server != "" || *sweepN > 0 || *budgets != "" {
		if *server == "" {
			fatal(errors.New("-sweep/-budgets stream from a planning service; set -server"))
		}
		if *sweepN <= 0 && *budgets == "" {
			fatal(errors.New("-server is for sweeps; set -sweep N or -budgets (single solves run locally)"))
		}
		budgetList, err := parseBudgetList(*budgets, minB, peak)
		if err != nil {
			fatal(err)
		}
		runRemoteSweep(*server, api.SweepRequest{
			Model: *model, Batch: *batch, Device: *device,
			CoarseSegments: *segments, Method: string(method),
			Budgets: budgetList, Points: *sweepN,
			TimeLimitMS: limit.Milliseconds(), RelGap: *gap,
		}, *quiet)
		return
	}
	req := checkmate.Request{
		Workload: wl, Method: method, Budget: bud,
		TimeLimit: *limit, RelGap: *gap, Threads: *threads,
	}
	// Remember the last incumbent so an interrupted run can report how far
	// the search got (the schedule itself is discarded on cancellation).
	var lastInc struct {
		seen     bool
		overhead float64
		elapsed  time.Duration
	}
	obs := checkmate.ObserverFunc(func(e checkmate.Event) {
		if e.Kind == checkmate.EventIncumbent {
			lastInc.seen, lastInc.overhead, lastInc.elapsed = true, e.Overhead, e.Elapsed
		}
	})
	if *quiet {
		req.Observer = obs
	} else {
		progress := progressObserver()
		req.Observer = checkmate.ObserverFunc(func(e checkmate.Event) {
			obs.OnEvent(e)
			progress.OnEvent(e)
		})
	}
	// Ctrl-C cancels the search cleanly (in-flight simplex included)
	// instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var tr *telemetry.Trace
	if *tracePth != "" {
		tr = telemetry.NewTrace()
		ctx = telemetry.WithTrace(ctx, tr)
	}
	sched, err := checkmate.Solve(ctx, req)
	// A timed-out or interrupted solve's trace is the one worth reading, so
	// the file is written before any error handling.
	writeTrace(tr, *tracePth)
	if err != nil {
		if errors.Is(err, context.Canceled) && lastInc.seen {
			fmt.Fprintf(os.Stderr, "checkmate-solve: interrupted; best incumbent so far had overhead %.3fx (at %v)\n",
				lastInc.overhead, lastInc.elapsed.Round(time.Millisecond))
			os.Exit(1)
		}
		fatal(err)
	}
	fmt.Printf("method=%s cost %.6g (overhead %.3fx vs ideal), peak %s, optimal=%v\n",
		sched.Method, sched.Cost, sched.Overhead(), fmtBytes(sched.PeakBytes), sched.Optimal)
	if sched.Nodes > 0 {
		fmt.Printf("solve: %v, %d branch-and-bound nodes, MILP %d vars × %d rows\n",
			sched.SolveTime.Round(time.Millisecond), sched.Nodes, sched.LPVars, sched.LPRows)
		ctr := sched.Solver
		if hits, misses := ctr.WarmHits, ctr.WarmMisses; hits+misses > 0 {
			fmt.Printf("solver: %d simplex iters (%d dual), warm-start hit rate %.0f%%, %d phase-1 skips, %.0f nodes/s\n",
				ctr.SimplexIters, ctr.DualIters, 100*float64(hits)/float64(hits+misses), ctr.Phase1Skipped, ctr.NodesPerSec)
		}
	}
	fmt.Printf("plan: %d statements, %d recomputations\n", len(sched.Plan.Stmts), sched.Sched.Recomputations())
	if *showPlan {
		fmt.Print(sched.Plan.String())
	}
}

// writeTrace dumps the solve's span tree as Chrome trace_event JSON and a
// one-line per-phase self-time summary on stderr.
func writeTrace(tr *telemetry.Trace, path string) {
	if tr == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkmate-solve: creating trace file: %v\n", err)
		return
	}
	defer f.Close()
	if err := tr.WriteChromeTrace(f); err != nil {
		fmt.Fprintf(os.Stderr, "checkmate-solve: writing trace: %v\n", err)
		return
	}
	phases := tr.ExclusiveTotals()
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return phases[names[i]] > phases[names[j]] })
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s %v", name, phases[name].Round(time.Millisecond)))
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans over %v -> %s (self-time: %s)\n",
		len(tr.Spans()), tr.Duration().Round(time.Millisecond), path, strings.Join(parts, ", "))
}

// progressObserver renders the solver's anytime trajectory on stderr: the
// MILP dimensions when the search starts, then every (rate-limited)
// incumbent and bound improvement with the proven optimality gap.
func progressObserver() checkmate.Observer {
	return checkmate.ObserverFunc(func(e checkmate.Event) {
		switch e.Kind {
		case checkmate.EventStarted:
			if e.Vars > 0 {
				fmt.Fprintf(os.Stderr, "  [%7.2fs] MILP built: %d vars × %d rows\n",
					e.Elapsed.Seconds(), e.Vars, e.Rows)
			}
		case checkmate.EventIncumbent:
			gap := "  gap n/a"
			if !math.IsInf(e.Gap, 1) {
				gap = fmt.Sprintf("gap %5.2f%%", 100*e.Gap)
			}
			fmt.Fprintf(os.Stderr, "  [%7.2fs] incumbent %.6g (overhead %.3fx)  %s\n",
				e.Elapsed.Seconds(), e.Objective, e.Overhead, gap)
		case checkmate.EventBound:
			fmt.Fprintf(os.Stderr, "  [%7.2fs] bound     %.6g\n", e.Elapsed.Seconds(), e.Bound)
		}
	})
}

// runRemoteSweep streams a budget sweep from the planning service at
// server(s), rendering each point on stderr the moment it completes —
// completion order, not budget order — then printing the budget-ascending
// summary the blocking /v1/sweep endpoint would have returned. Retries and
// multi-endpoint failover come from the client; Ctrl-C detaches cleanly
// (the service abandons the sweep when its last watcher leaves).
func runRemoteSweep(servers string, req api.SweepRequest, quiet bool) {
	c, err := client.NewMulti(strings.Split(servers, ","), nil,
		client.WithRetry(client.RetryPolicy{}))
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	completed := 0
	render := func(ev api.StreamEvent) {
		switch ev.Event {
		case api.StreamEventSweepPoint:
			var sp api.StreamSweepPoint
			if json.Unmarshal(ev.Data, &sp) != nil {
				return
			}
			completed++
			pt := sp.Point
			switch {
			case pt.Error != "":
				fmt.Fprintf(os.Stderr, "  [%2d/%d] budget %10s  error: %s\n",
					completed, sp.Total, fmtBytes(pt.Budget), pt.Error)
			default:
				fmt.Fprintf(os.Stderr, "  [%2d/%d] budget %10s  overhead %.3fx  peak %s%s\n",
					completed, sp.Total, fmtBytes(pt.Budget), pt.Overhead,
					fmtBytes(pt.PeakBytes), pointFlags(pt))
			}
		case api.StreamEventDegraded:
			var d api.StreamDegraded
			if json.Unmarshal(ev.Data, &d) != nil {
				return
			}
			fmt.Fprintf(os.Stderr, "  degraded: %s -> %s (%s)\n", d.From, d.To, d.Reason)
		}
	}
	if quiet {
		render = nil
	}
	resp, err := c.SweepStream(ctx, req, 0, render)
	if err != nil {
		fatal(err)
	}

	feasible := 0
	for _, pt := range resp.Points {
		if pt.Feasible {
			feasible++
		}
	}
	fmt.Printf("sweep: %d points, %d feasible (min budget %s, checkpoint-all peak %s)\n",
		len(resp.Points), feasible, fmtBytes(resp.MinBudget), fmtBytes(resp.CheckpointAllPeak))
	for _, pt := range resp.Points {
		if pt.Error != "" {
			fmt.Printf("  %10s  error: %s\n", fmtBytes(pt.Budget), pt.Error)
			continue
		}
		fmt.Printf("  %10s  overhead %.3fx  peak %10s%s\n",
			fmtBytes(pt.Budget), pt.Overhead, fmtBytes(pt.PeakBytes), pointFlags(pt))
	}
}

// pointFlags renders a sweep point's boolean outcomes as a trailing tag list.
func pointFlags(pt api.SweepPoint) string {
	var flags []string
	if pt.Optimal {
		flags = append(flags, "optimal")
	}
	if pt.Degraded {
		flags = append(flags, "degraded")
	}
	if pt.Cached {
		flags = append(flags, "cached")
	}
	if len(flags) == 0 {
		return ""
	}
	return "  [" + strings.Join(flags, ", ") + "]"
}

// parseBudgetList parses the -budgets flag: comma-separated budgets in any
// form -budget accepts, fractions included.
func parseBudgetList(s string, minB, peak int64) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		b, err := parseBudget(part, minB, peak)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func parseShape(s string) (nets.Shape, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return nets.Shape{}, fmt.Errorf("bad shape %q, want CxHxW", s)
	}
	var dims [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return nets.Shape{}, fmt.Errorf("bad shape %q", s)
		}
		dims[i] = v
	}
	return nets.Shape{C: dims[0], H: dims[1], W: dims[2]}, nil
}

func parseBudget(s string, minB, peak int64) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	up := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(up, "GIB"):
		mult, s = 1<<30, s[:len(s)-3]
	case strings.HasSuffix(up, "MIB"):
		mult, s = 1<<20, s[:len(s)-3]
	case strings.HasSuffix(up, "GB"):
		mult, s = 1e9, s[:len(s)-2]
	case strings.HasSuffix(up, "MB"):
		mult, s = 1e6, s[:len(s)-2]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad budget %q", s)
	}
	if mult == 1 && v > 0 && v <= 1 {
		// Fractions interpolate the schedulable range: 0 = minimum feasible
		// budget, 1 = checkpoint-all peak (absolute bytes below the minimum
		// are never useful).
		return minB + int64(v*float64(peak-minB)), nil
	}
	return int64(v * float64(mult)), nil
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/float64(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/float64(1<<20))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "checkmate-solve:", err)
	os.Exit(1)
}
