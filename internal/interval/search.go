// Best-first branch-and-bound over retention-interval start domains.
//
// Each node holds a start domain [lo..hi] per window; branching splits one
// domain at a stage threshold (children: start ≤ t / start > t), guided by
// the most fractional occupancy variable of the node's relaxation. The
// relaxation LP prices an admissible bound for the subtree, warm-started
// from the parent's basis. The LP underestimates cascade recomputation, so
// an integral relaxation does not close a node — instead every promising
// fractional point is rounded to starts, repaired against the knapsack
// rows, and completed into a real schedule whose exact cost and peak decide
// incumbent updates. A node with every domain pinned is evaluated exactly
// and fathomed, which keeps the search exact within the interval space.
package interval

import (
	"container/heap"
	"context"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/telemetry"
)

type node struct {
	// prio is the inherited lower bound (the parent's LP bound) that orders
	// the heap; the node's own LP can only tighten it.
	prio   float64
	depth  int
	lo, hi []int32
	basis  *lp.Basis
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	//lint:floateq exact tie-break: equal priorities fall through to the deterministic depth key
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].depth > h[j].depth // deeper first among ties: reach leaves sooner
}
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any          { old := *h; n := old[len(old)-1]; *h = old[:len(old)-1]; return n }
func (h nodeHeap) peekBound() float64 { return h[0].prio }

// SolveCtx compiles the instance into retention windows, tightens their
// start domains by constraint propagation, and searches best-first with
// LP-relaxation bounds. The error return covers context cancellation and
// contained panics (a panic anywhere in the search is recovered into a
// *telemetry.PanicError instead of killing the process); infeasibility and
// exhausted limits are reported in Result.Status.
func SolveCtx(ctx context.Context, inst core.Instance, opt Options) (res *Result, err error) {
	// The search runs on the caller's goroutine; recovery here contains
	// panics from compilation, propagation, LP pricing, and rounding alike.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, telemetry.Recovered("interval.search", r)
		}
	}()
	start := time.Now()
	timeLimit := opt.TimeLimit
	if timeLimit <= 0 {
		timeLimit = 60 * time.Second
	}
	deadline := start.Add(timeLimit)
	relGap := opt.RelGap
	if relGap <= 0 {
		relGap = 1e-6
	}

	_, pspan := telemetry.StartSpan(ctx, "interval_propagate")
	pb, err := compile(inst)
	if err != nil {
		pspan.SetAttr("infeasible", err.Error())
		pspan.End()
		return &Result{Status: milp.StatusInfeasible, Bound: math.Inf(1), SolveTime: time.Since(start)}, nil
	}
	rootLo, rootHi := pb.rootDomain()
	rootOK := pb.propagate(rootLo, rootHi)
	pspan.SetAttr("windows", len(pb.wins))
	pspan.SetAttr("rows", pb.rel.NumRows())
	pspan.End()
	res = &Result{Windows: len(pb.wins), Vars: pb.rel.NumVars(), Rows: pb.rel.NumRows(), Bound: math.Inf(-1)}
	if !rootOK {
		res.Status = milp.StatusInfeasible
		res.Bound = math.Inf(1)
		res.SolveTime = time.Since(start)
		return res, nil
	}
	if opt.OnStart != nil {
		opt.OnStart(res.Vars, res.Rows)
	}

	_, sspan := telemetry.StartSpan(ctx, "interval_search")
	defer sspan.End()

	// The deadline context interrupts in-flight LP solves; parent-context
	// errors stay distinguishable (deadline expiry is a limit, not an
	// error).
	dctx, stop := context.WithDeadline(ctx, deadline)
	defer stop()

	var (
		sv          = lp.NewSolver()
		cancel      = dctx.Done()
		best        *core.Sched
		bestCost    = math.Inf(1)
		globalBound = math.Inf(-1)
		// leafBound tracks the minimum relaxation bound over fathomed
		// leaves. A full-MILP schedule mapping into a leaf (via suffix
		// indicators) can retain values outside every window and beat the
		// leaf's interval-space evaluation, so a leaf is only certified
		// down to its LP bound — the final Bound takes the min.
		leafBound = math.Inf(1)
	)
	cutoff := func() float64 {
		if math.IsInf(bestCost, 1) {
			return math.Inf(1)
		}
		return bestCost - math.Max(1e-9, relGap*math.Abs(bestCost))
	}
	improve := func(s *core.Sched, cost float64) {
		if cost >= bestCost-1e-12 {
			return
		}
		best, bestCost = s, cost
		if opt.OnIncumbent != nil {
			opt.OnIncumbent(cost, globalBound)
		}
	}

	// The latest-start completion is the minimum-retention baseline: often
	// the first feasible schedule on large graphs, available before any LP.
	if s, cost, ok := pb.attempt(rootLo, rootHi, nil); ok {
		improve(s, cost)
	}

	h := &nodeHeap{{prio: math.Inf(-1), lo: rootLo, hi: rootHi}}
	limit := false
	for h.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Chaos hook: one fire per search node; injected errors escalate to
		// (contained) panics like the MILP workers.
		if err := faultinject.Fire(faultinject.IntervalSearch); err != nil {
			panic(err)
		}
		if time.Now().After(deadline) || (opt.MaxNodes > 0 && res.Nodes >= opt.MaxNodes) {
			limit = true
			break
		}
		nd := heap.Pop(h).(*node)
		if nd.prio >= cutoff() {
			break // best-first: every open node is within the accepted gap
		}
		if nd.prio > globalBound {
			globalBound = nd.prio
			if opt.OnBound != nil {
				opt.OnBound(globalBound)
			}
		}
		if !pb.propagate(nd.lo, nd.hi) {
			continue
		}
		res.Nodes++
		sol := pb.solveRel(sv, nd.lo, nd.hi, nd.basis, cancel)
		account(&res.Solver, sol, nd.basis, res.Nodes == 1)
		bound := nd.prio
		var x []float64
		switch sol.Status {
		case lp.StatusInfeasible:
			continue
		case lp.StatusOptimal:
			if b := pb.base + sol.Obj; b > bound {
				bound = b
			}
			x = sol.X
		default:
			// Iteration limit or cancellation mid-LP: the inherited bound
			// stays valid; branching continues blind.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if bound >= cutoff() {
			continue
		}
		if s, cost, ok := pb.attempt(nd.lo, nd.hi, x); ok {
			improve(s, cost)
		}
		if bound >= cutoff() {
			continue
		}
		bw, bt := pb.pickBranch(nd.lo, nd.hi, x)
		if bw < 0 {
			// Leaf: the attempt above evaluated it exactly within the
			// interval space; its LP bound certifies the full space.
			if bound < leafBound {
				leafBound = bound
			}
			continue
		}
		left := &node{prio: bound, depth: nd.depth + 1, basis: sol.Basis,
			lo: append([]int32(nil), nd.lo...), hi: append([]int32(nil), nd.hi...)}
		right := &node{prio: bound, depth: nd.depth + 1, basis: sol.Basis,
			lo: append([]int32(nil), nd.lo...), hi: append([]int32(nil), nd.hi...)}
		left.hi[bw] = int32(bt)      // start ≤ t: retained at stage t
		right.lo[bw] = int32(bt + 1) // start > t: not retained at stage t
		heap.Push(h, left)
		heap.Push(h, right)
	}

	res.SolveTime = time.Since(start)
	if secs := res.SolveTime.Seconds(); secs > 0 {
		res.Solver.NodesPerSec = float64(res.Nodes) / secs
	}
	res.Sched, res.Cost = best, bestCost
	switch {
	case best != nil && !limit:
		// Optimal within the interval space. Bound stays honest for the
		// full MILP space: pruned subtrees are certified at the final
		// cutoff (≈ bestCost), fathomed leaves only at their LP bound.
		res.Status = milp.StatusOptimal
		res.Bound = math.Min(bestCost, leafBound)
	case best != nil:
		res.Status = milp.StatusFeasible
		open := globalBound
		if h.Len() > 0 && h.peekBound() > open {
			open = h.peekBound()
		}
		res.Bound = math.Min(math.Min(open, leafBound), bestCost)
	case limit:
		res.Status = milp.StatusLimit
		res.Bound = math.Min(globalBound, leafBound)
	default:
		res.Status = milp.StatusInfeasible
		res.Bound = math.Inf(1)
	}
	sspan.SetAttr("nodes", res.Nodes)
	sspan.SetAttr("status", res.Status.String())
	return res, nil
}

// solveRel prices the relaxation under a node's start domains. With no rows
// the relaxation separates per window — retain from the earliest allowed
// start, which is free exactly when the domain still admits the left edge —
// and is solved analytically.
func (pb *problem) solveRel(sv *lp.Solver, lo, hi []int32, basis *lp.Basis, cancel <-chan struct{}) *lp.Solution {
	if pb.rel.NumRows() == 0 {
		sol := &lp.Solution{Status: lp.StatusOptimal, X: make([]float64, pb.rel.NumVars())}
		for wi := range pb.wins {
			w := &pb.wins[wi]
			for t := w.from; t <= w.tEnd; t++ {
				if t >= int(lo[wi]) {
					sol.X[w.col(t)] = 1
				}
			}
			if int(lo[wi]) > w.from {
				sol.Obj += w.cost // left edge excluded: one recompute is certain
			}
		}
		sol.Obj -= pb.base - pb.g.TotalCost() // credit every window the LP keeps free
		return sol
	}
	pb.applyDomains(lo, hi)
	return sv.Solve(pb.rel, lp.Options{WarmStart: basis, Cancel: cancel})
}

// account folds one node LP's counters into the solve-wide bag.
func account(c *milp.Counters, sol *lp.Solution, offered *lp.Basis, isRoot bool) {
	c.SimplexIters += int64(sol.Iters)
	c.DualIters += int64(sol.DualIters)
	c.BoundFlips += int64(sol.BoundFlips)
	c.PricingUpdates += int64(sol.PricingUpdates)
	if isRoot {
		c.RootIters += int64(sol.Iters)
	}
	if offered != nil {
		if sol.Warm {
			c.WarmHits++
		} else {
			c.WarmMisses++
		}
	}
	if sol.Phase1Iters == 0 {
		c.Phase1Skipped++
	}
}

// attempt turns a node's relaxation point into a verified schedule. The
// knapsack rows cannot see within-stage rematerialization transients, so a
// rounding that saturates them usually has no headroom for the recompute
// walks; the ladder retries with growing per-stage margins — trimming
// retention to capacity-minus-margin — until the exact memory recurrence
// fits. Small instances succeed at margin zero; large tight ones climb
// until the spacing between surviving checkpoints leaves room for the
// walks. A nil x seeds the keep-everything pattern before trimming. The
// margins are B/16, B/8, B/4 and B/2 of the budget B rounded to the nearest
// byte (halves down); the last one trims every optional retention.
func (pb *problem) attempt(lo, hi []int32, x []float64) (*core.Sched, float64, bool) {
	b := pb.budget
	margins := [...]int64{0, (b + 7) / 16, (b + 3) / 8, (b + 1) / 4, b / 2, math.MaxInt64}
	for _, margin := range margins {
		if s, cost, ok := pb.attemptMargin(lo, hi, x, margin); ok {
			return s, cost, true
		}
	}
	return nil, 0, false
}

// peakTries bounds the exact re-evaluations one margin attempt may spend
// evicting windows off the true peak stage.
const peakTries = 8

func (pb *problem) attemptMargin(lo, hi []int32, x []float64, margin int64) (*core.Sched, float64, bool) {
	start := make([]int32, len(pb.wins))
	for wi := range pb.wins {
		w := &pb.wins[wi]
		var s int32
		if x != nil {
			s = int32(w.to + 1)
			for t := w.from; t <= w.tEnd; t++ {
				if x[w.col(t)] >= 0.5 {
					s = int32(t)
					break
				}
			}
		} else {
			s = lo[wi] // retain everything the domain allows; trimmed below
		}
		if s < lo[wi] {
			s = lo[wi]
		}
		if s > hi[wi] {
			s = hi[wi]
		}
		start[wi] = s
	}
	// Knapsack repair: push the largest movable window's start past every
	// stage row loaded beyond the margined capacity.
	for t := 1; t < pb.n; t++ {
		row := pb.rowsOf[t]
		if len(row) == 0 {
			continue
		}
		capac := max(pb.rowRHS[t]-margin, 0)
		var load int64
		for _, wi := range row {
			if int(start[wi]) <= t {
				load += pb.wins[wi].mem
			}
		}
		for load > capac {
			ev := -1
			for _, wi := range row {
				if int(start[wi]) <= t && int(hi[wi]) > t && (ev < 0 || pb.wins[wi].mem > pb.wins[ev].mem) {
					ev = int(wi)
				}
			}
			if ev < 0 {
				if load > pb.rowRHS[t] {
					return nil, 0, false
				}
				break // committed load within the true capacity: margin unmet, still worth evaluating
			}
			load -= pb.wins[ev].mem
			start[ev] = int32(t + 1)
		}
	}
	for try := 0; try < peakTries; try++ {
		s, cost, ok, peakStage := pb.evaluate(start)
		if ok {
			return s, cost, true
		}
		ev := -1
		for _, wi := range pb.coverOf[peakStage] {
			if int(start[wi]) <= peakStage && int(hi[wi]) > peakStage && (ev < 0 || pb.wins[wi].mem > pb.wins[ev].mem) {
				ev = int(wi)
			}
		}
		if ev < 0 {
			return nil, 0, false
		}
		start[ev] = int32(peakStage + 1)
	}
	return nil, 0, false
}

// pickBranch selects the window and stage threshold to branch on: the most
// fractional occupancy variable of the relaxation point, recompute cost
// breaking ties. With an integral (or absent) relaxation point, the
// costliest unpinned window is bisected. Returns bw = -1 at a leaf.
func (pb *problem) pickBranch(lo, hi []int32, x []float64) (bw, bt int) {
	bw, bt = -1, -1
	if x != nil {
		bestScore, bestCost := 1e-6, -1.0
		for wi := range pb.wins {
			if lo[wi] == hi[wi] {
				continue
			}
			w := &pb.wins[wi]
			for t := maxInt(w.from, int(lo[wi])); t <= w.tEnd && t < int(hi[wi]); t++ {
				score := math.Min(x[w.col(t)], 1-x[w.col(t)])
				if score > bestScore+1e-12 || (math.Abs(score-bestScore) <= 1e-12 && w.cost > bestCost) {
					bw, bt = wi, t
					bestScore, bestCost = score, w.cost
				}
			}
		}
		if bw >= 0 {
			return bw, bt
		}
	}
	bestCost := -1.0
	for wi := range pb.wins {
		if lo[wi] < hi[wi] && pb.wins[wi].cost > bestCost {
			bw = wi
			bestCost = pb.wins[wi].cost
		}
	}
	if bw >= 0 {
		bt = (int(lo[bw]) + int(hi[bw])) / 2
	}
	return bw, bt
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
