package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"syscall"
	"time"

	"repro/checkmate"
	"repro/internal/telemetry"
)

// zooCase is one instance ready to solve: the workload handed to the
// planner, the benchmark's independent reference, and the budget.
type zooCase struct {
	in     Instance
	wl     *checkmate.Workload
	ref    Reference
	budget int64
}

// loader builds zoo workloads, timing every checkmate.Load call.
type loader struct {
	cfg    *Config
	loadNS time.Duration
}

func (l *loader) load(model string, segments int) (*checkmate.Workload, error) {
	t0 := time.Now()
	wl, err := checkmate.Load(model, checkmate.Options{Batch: l.cfg.Batch, Device: l.cfg.Device, CoarseSegments: segments})
	l.loadNS += time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("load %s/%d: %w", model, segments, err)
	}
	return wl, nil
}

// pair loads a model twice: once for the planner, once as the verifier's
// own reference graph.
func (l *loader) pair(model string, segments int) (solve, ref *checkmate.Workload, err error) {
	if solve, err = l.load(model, segments); err != nil {
		return nil, nil, err
	}
	ref, err = l.load(model, segments)
	return solve, ref, err
}

// budgetAt is min + f·(checkpoint-all peak − min), rounded down to a byte.
func budgetAt(wl *checkmate.Workload, f float64) int64 {
	lo, hi := wl.MinBudget(), wl.CheckpointAllPeak()
	return lo + int64(f*float64(hi-lo))
}

// setupZoo builds every instance's workloads, budget and baseline reference.
func setupZoo(ctx context.Context, cfg *Config, wd ZooWorkload) ([]zooCase, time.Duration, error) {
	l := &loader{cfg: cfg}
	type pairKey struct {
		model    string
		segments int
	}
	type wlPair struct{ solve, ref *checkmate.Workload }
	built := make(map[pairKey]wlPair)
	var cases []zooCase
	for _, in := range wd.Instances {
		k := pairKey{in.Model, in.Segments}
		p, ok := built[k]
		if !ok {
			s, r, err := l.pair(in.Model, in.Segments)
			if err != nil {
				return nil, 0, err
			}
			p = wlPair{s, r}
			built[k] = p
		}
		budget := budgetAt(p.ref, in.Fraction)
		base, err := cheapestBaseline(ctx, p.ref, p.ref.Graph, p.ref.Overhead, budget)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", in.Name(), err)
		}
		cases = append(cases, zooCase{
			in: in, wl: p.solve, budget: budget,
			ref: Reference{Graph: p.ref.Graph, Overhead: p.ref.Overhead, Baseline: base, RelGap: cfg.RelGap},
		})
	}
	return cases, l.loadNS, nil
}

// zooPass is the outcome of planning an instance list once.
type zooPass struct {
	ops      []Op
	makespan time.Duration
	// first is the summed time of every instance's first solve.
	first  time.Duration
	wall   time.Duration
	verify time.Duration
	counts map[string]float64
}

// Short solves vary most from call to call on a shared host, so runZoo
// solves an instance again until its solves add up to repeatCPU or it has
// run maxRepeats times, and takes the median: sub-second solves run up to
// five times, solves of 2 s or more once, and a solve that ends at its time
// limit runs once. Set-up is repeated setupRepeats times and its median
// reported, on every workload.
const (
	repeatCPU    = 2 * time.Second
	maxRepeats   = 5
	setupRepeats = 5
)

// runZoo plans every case in an order drawn from seed, verifying every
// answer. Each instance is solved up to maxSolves times (see repeatCPU);
// its time is the median of its solves and the pass's makespan the sum of
// those medians. With tr non-nil every Solve runs under that trace, wrapped
// in benchmark-owned spans.
//
// Times are the process's CPU time (user + system) over each call. The
// solves run serially and nothing else runs in the process, so on an idle
// machine this equals wall time; unlike wall time it does not count the
// spans in which a shared host runs other tenants instead. Time limits are
// wall-clock, so a solve is marked as limit-bound by wall time.
func runZoo(ctx context.Context, cases []zooCase, seed int64, maxSolves int, tr *telemetry.Trace) zooPass {
	order := rand.New(rand.NewSource(seed)).Perm(len(cases))
	if tr != nil {
		ctx = telemetry.WithTrace(ctx, tr)
	}
	p := zooPass{counts: make(map[string]float64)}
	start := time.Now()
	for _, i := range order {
		c := cases[i]
		op := Op{Instance: c.in.Name(), Limit: c.in.TimeLimit(), RanSolve: true, Class: classOK}
		var times []float64
		var used time.Duration
		for len(times) == 0 || len(times) < maxSolves && used < repeatCPU {
			r := p.solve(ctx, c, len(times) == 0)
			if len(times) == 0 {
				p.first += r.Latency
			}
			times = append(times, float64(r.Latency))
			used += r.Latency
			if op.Class == classOK {
				op.Class, op.Check, op.Detail, op.Overhead = r.Class, r.Check, r.Detail, r.Overhead
			}
			if r.AtLimit {
				op.AtLimit = true
				break
			}
			if r.Class == classRefused || r.Class == classError {
				break
			}
		}
		op.Latency = time.Duration(quantile(times, 0.5))
		op.SolveTime = op.Latency
		p.makespan += op.Latency
		p.ops = append(p.ops, op)
	}
	p.wall = time.Since(start)
	return p
}

// solve runs and verifies one Solve call of c, counting the planner's
// counters when first is set.
func (p *zooPass) solve(ctx context.Context, c zooCase, first bool) Op {
	op := Op{Limit: c.in.TimeLimit()}
	sctx, span := telemetry.StartSpan(ctx, "bench.solve", telemetry.A("instance", c.in.Name()))
	t0, c0 := time.Now(), cpuTime()
	s, err := checkmate.Solve(sctx, checkmate.Request{
		Workload: c.wl, Method: checkmate.Method(c.in.Method), Budget: c.budget,
		TimeLimit: c.in.TimeLimit(), RelGap: c.ref.RelGap,
	})
	wall := time.Since(t0)
	op.Latency = cpuTime() - c0
	span.End()
	op.AtLimit = wall >= op.Limit
	if err != nil {
		op.Class, op.Check, op.Detail = classifySolveErr(err, c.ref)
		return op
	}
	if first {
		p.count(c.in.Method, s)
	}
	_, vspan := telemetry.StartSpan(ctx, "bench.verify")
	v0 := time.Now()
	verr := Verify(c.ref, Answer{Plan: s.Plan, Budget: c.budget, Cost: s.Cost, IdealCost: s.IdealCost, PeakBytes: s.PeakBytes, Optimal: s.Optimal})
	p.verify += time.Since(v0)
	vspan.End()
	op.Class, op.Check, op.Detail = verdict(verr)
	if op.Class == classOK {
		op.Overhead = s.Cost / s.IdealCost
	}
	return op
}

// cpuTime is the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// count accumulates the planner's own counters by the layer that did the
// work.
func (p *zooPass) count(method string, s *checkmate.Schedule) {
	c, ctr := p.counts, s.Solver
	c["schedule.stmts"] += float64(len(s.Plan.Stmts))
	switch checkmate.Method(method) {
	case checkmate.Optimal:
		c["core.lp_vars"] += float64(s.LPVars)
		c["core.lp_rows"] += float64(s.LPRows)
		c["lp.root_iters"] += float64(ctr.RootIters)
		c["milp.nodes"] += float64(s.Nodes)
		c["milp.simplex_iters"] += float64(ctr.SimplexIters)
		c["milp.dual_iters"] += float64(ctr.DualIters)
		c["milp.probe_iters"] += float64(ctr.ProbeIters)
		c["milp.warm_hits"] += float64(ctr.WarmHits)
		c["milp.warm_misses"] += float64(ctr.WarmMisses)
	case checkmate.Approx:
		c["approx.eps_solves"] += float64(ctr.EpsSolves)
		c["approx.eps_warm_hits"] += float64(ctr.EpsWarmHits)
	case checkmate.Interval:
		c["interval.nodes"] += float64(s.Nodes)
		c["interval.simplex_iters"] += float64(ctr.SimplexIters)
		c["interval.dual_iters"] += float64(ctr.DualIters)
	}
}

// classifySolveErr maps a failed Solve onto the operation classes. An
// infeasibility claim is wrong when a baseline fits the budget.
func classifySolveErr(err error, ref Reference) (class, check, detail string) {
	switch {
	case errors.Is(err, checkmate.ErrSolveLimit):
		return classRefused, "solve_limit", err.Error()
	case errors.Is(err, checkmate.ErrInfeasible):
		if verr := VerifyInfeasible(ref); verr != nil {
			return verdict(verr)
		}
		return classRefused, "infeasible", err.Error()
	}
	return classError, "error", err.Error()
}

// verdict maps a verification error onto the operation classes.
func verdict(err error) (class, check, detail string) {
	if err == nil {
		return classOK, "", ""
	}
	var ce *CheckError
	if errors.As(err, &ce) {
		return classWrong, ce.Check, ce.Detail
	}
	return classError, "verify", err.Error()
}

// zooLayers turns a pass's counters and span self times into per-layer
// metrics.
func zooLayers(p zooPass, self map[string]time.Duration, loadNS time.Duration) map[string]float64 {
	v := make(map[string]float64)
	for k, x := range p.counts {
		v[k] = x
	}
	layerTimes(v, self)
	v["nets.load_ms"] = ms(loadNS)
	v["lp.root_ms_per_iter"] = ratio(v["lp.root_ms"], v["lp.root_iters"])
	v["milp.warm_hit_ratio"] = ratio(p.counts["milp.warm_hits"], p.counts["milp.warm_hits"]+p.counts["milp.warm_misses"])
	v["interval.ms_per_node"] = ratio(v["interval.search_ms"], v["interval.nodes"])
	return v
}

// runZooWorkload is one run of a zoo workload: repeated set-up, one
// untraced pass for the end-to-end metrics and, when traced, a second pass
// that solves every instance once under a span trace for the per-layer
// ones. The operations of both passes are returned, so every verified
// answer counts.
func runZooWorkload(ctx context.Context, cfg *Config, name string, wd ZooWorkload, seed int64, traced bool) (Metrics, []Op, []string, error) {
	var (
		cases  []zooCase
		loadNS time.Duration
		setups []float64
	)
	t0 := processStart
	for r := 0; r < setupRepeats; r++ {
		var err error
		if cases, loadNS, err = setupZoo(ctx, cfg, wd); err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, float64(time.Since(t0)))
		t0 = time.Now()
	}
	setup := time.Duration(quantile(setups, 0.5))
	plain := runZoo(ctx, cases, seed, maxRepeats, nil)
	counts := exactCounts(cfg, name, plain.counts)
	fmt.Printf("pass    %d instances, makespan %.3f s CPU (sum of medians), %.3f s wall with repeats\n", len(plain.ops), plain.makespan.Seconds(), plain.wall.Seconds())
	if !traced {
		return endToEnd(plain.ops, setup, plain.makespan), plain.ops, counts, nil
	}
	tr := telemetry.NewTrace()
	tp := runZoo(ctx, cases, seed, 1, tr)
	if got := exactCounts(cfg, name, tp.counts); fmt.Sprint(got) != fmt.Sprint(counts) {
		counts = append(counts, "MISMATCH traced pass: "+fmt.Sprint(got))
	}
	v := zooLayers(plain, tr.ExclusiveTotals(), loadNS)
	v["bench.verify_ms"] = ms(tp.verify)
	// First solves against first solves: the traced pass solves once.
	v["trace.overhead_frac"] = tp.first.Seconds()/plain.first.Seconds() - 1
	return perLayer(v), append(plain.ops, tp.ops...), counts, nil
}

// exactCounts renders the workload's exact-repeat counters as name=value.
func exactCounts(cfg *Config, workload string, counts map[string]float64) []string {
	var out []string
	for _, n := range cfg.ExactCounts[workload] {
		out = append(out, fmt.Sprintf("%s=%.0f", n, counts[n]))
	}
	return out
}
