package interval

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/milp"
)

// randomInstance builds a small random layered DAG (chain spine plus skip
// edges, the same family the core solver property tests use) and a budget
// between the minimum bound and the checkpoint-all peak.
func randomInstance(seed int64) core.Instance {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(6)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{Cost: float64(1 + rng.Intn(5)), Mem: int64(1 + rng.Intn(4))})
	}
	for i := 1; i < n; i++ {
		g.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
		if i >= 2 && rng.Float64() < 0.35 {
			g.MustEdge(graph.NodeID(rng.Intn(i-1)), graph.NodeID(i))
		}
	}
	return core.Instance{G: g, Budget: core.MinBudgetLowerBound(g, 0) + rng.Int63n(8)}
}

// Property: cross-validation of the interval solver against the MILP
// optimum on small random graphs. On every seed the two solvers must agree
// on feasibility, the interval schedule must satisfy every correctness
// constraint and the budget, the interval cost can never beat the MILP
// optimum (the interval space is a restriction), and the interval solver's
// reported Bound must be admissible for the full MILP space
// (Bound ≤ MILP optimum ≤ interval cost). Whenever the solver's own
// certificate closes — Bound within 1e-6 of its cost — the cost must equal
// the MILP optimum exactly: the solver knows when it is globally optimal,
// and that knowledge must never be wrong. The certificate closes on the
// overwhelming majority of instances; the rate floor catches formulation
// regressions. The residual cases are schedules that retain a value past
// its last use to feed later rematerialization cascades, which retention
// intervals deliberately do not express (see the package comment).
func TestIntervalMatchesMILPOptimum(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 15
	}
	exact, feasible := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		inst := randomInstance(seed)
		milpRes, err := core.SolveILPCtx(context.Background(), inst, core.SolveOptions{})
		if err != nil {
			t.Fatalf("seed %d: milp: %v", seed, err)
		}
		ivRes, err := SolveCtx(context.Background(), inst, Options{})
		if err != nil {
			t.Fatalf("seed %d: interval: %v", seed, err)
		}
		mFeas := milpRes.Status == milp.StatusOptimal
		iFeas := ivRes.Status == milp.StatusOptimal && ivRes.Sched != nil
		if mFeas != iFeas {
			t.Fatalf("seed %d (budget %d): milp status %v, interval status %v",
				seed, inst.Budget, milpRes.Status, ivRes.Status)
		}
		if !mFeas {
			continue
		}
		feasible++
		if err := ivRes.Sched.Validate(inst.G, true); err != nil {
			t.Fatalf("seed %d: invalid schedule: %v", seed, err)
		}
		if p := ivRes.Sched.Peak(inst.G, inst.Overhead); p > inst.Budget {
			t.Fatalf("seed %d: peak %d over budget %d", seed, p, inst.Budget)
		}
		if ivRes.Cost < milpRes.Cost-1e-6 {
			t.Fatalf("seed %d (budget %d): interval %v beats the MILP optimum %v",
				seed, inst.Budget, ivRes.Cost, milpRes.Cost)
		}
		if ivRes.Bound > milpRes.Cost+1e-6 {
			t.Fatalf("seed %d (budget %d): bound %v above the MILP optimum %v — inadmissible",
				seed, inst.Budget, ivRes.Bound, milpRes.Cost)
		}
		certified := ivRes.Bound >= ivRes.Cost-1e-6
		match := math.Abs(ivRes.Cost-milpRes.Cost) <= 1e-6
		if certified && !match {
			t.Fatalf("seed %d (budget %d): certificate closed at %v but MILP optimum is %v",
				seed, inst.Budget, ivRes.Cost, milpRes.Cost)
		}
		if match {
			exact++
		}
	}
	if feasible > 0 && float64(exact) < 0.9*float64(feasible) {
		t.Fatalf("only %d/%d feasible seeds matched the MILP optimum", exact, feasible)
	}
}

// trainInstance builds a small training graph — a random forward chain
// differentiated by autodiff, the same family the bench suite uses — with
// a budget drawn between the minimum bound and the checkpoint-all peak.
func trainInstance(seed int64) core.Instance {
	rng := rand.New(rand.NewSource(seed))
	layers := 3 + rng.Intn(4)
	fwd := graph.New(layers)
	for i := 0; i < layers; i++ {
		fwd.AddNode(graph.Node{Cost: float64(1 + rng.Intn(5)), Mem: int64(1 + rng.Intn(4))})
	}
	for i := 1; i < layers; i++ {
		fwd.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	res, err := autodiff.Differentiate(fwd, autodiff.Options{})
	if err != nil {
		panic(err)
	}
	g := res.Graph
	minB := core.MinBudgetLowerBound(g, 0)
	peak := core.CheckpointAll(g).Peak(g, 0)
	budget := minB
	if peak > minB {
		budget = minB + rng.Int63n(peak-minB+1)
	}
	return core.Instance{G: g, Budget: budget}
}

// The same cross-validation contract on the training-graph family the
// bench suite scales up: feasibility agreement, admissible bounds, and
// exactness wherever the certificate closes.
func TestIntervalTrainingGraphs(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < seeds; seed++ {
		inst := trainInstance(seed)
		milpRes, err := core.SolveILPCtx(context.Background(), inst, core.SolveOptions{})
		if err != nil {
			t.Fatalf("seed %d: milp: %v", seed, err)
		}
		ivRes, err := SolveCtx(context.Background(), inst, Options{})
		if err != nil {
			t.Fatalf("seed %d: interval: %v", seed, err)
		}
		mFeas := milpRes.Status == milp.StatusOptimal
		iFeas := ivRes.Status == milp.StatusOptimal && ivRes.Sched != nil
		if mFeas != iFeas {
			t.Fatalf("seed %d (budget %d): milp status %v, interval status %v",
				seed, inst.Budget, milpRes.Status, ivRes.Status)
		}
		if !mFeas {
			continue
		}
		if ivRes.Cost < milpRes.Cost-1e-6 || ivRes.Bound > milpRes.Cost+1e-6 {
			t.Fatalf("seed %d (budget %d): milp %v, interval cost %v bound %v",
				seed, inst.Budget, milpRes.Cost, ivRes.Cost, ivRes.Bound)
		}
		if ivRes.Bound >= ivRes.Cost-1e-6 && math.Abs(ivRes.Cost-milpRes.Cost) > 1e-6 {
			t.Fatalf("seed %d (budget %d): certificate closed at %v but MILP optimum is %v",
				seed, inst.Budget, ivRes.Cost, milpRes.Cost)
		}
	}
}

// The solver is deterministic: the same instance solves to the same
// schedule, node count, and cost every time — a requirement for
// fingerprint-keyed schedule caching.
func TestIntervalDeterministic(t *testing.T) {
	inst := randomInstance(7)
	a, err := SolveCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.Nodes != b.Nodes || a.Status != b.Status {
		t.Fatalf("non-deterministic: %v/%d/%v vs %v/%d/%v", a.Cost, a.Nodes, a.Status, b.Cost, b.Nodes, b.Status)
	}
	for t2 := range a.Sched.R {
		for i := range a.Sched.R[t2] {
			if a.Sched.R[t2][i] != b.Sched.R[t2][i] || a.Sched.S[t2][i] != b.Sched.S[t2][i] {
				t.Fatalf("schedules differ at stage %d node %d", t2, i)
			}
		}
	}
}

// An unlimited budget admits the checkpoint-all schedule: the interval
// solver must find the zero-recomputation optimum (cost = total cost).
func TestIntervalUnlimitedBudget(t *testing.T) {
	inst := randomInstance(3)
	inst.Budget = 1 << 40
	res, err := SolveCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.Cost-inst.G.TotalCost()) > 1e-9 {
		t.Fatalf("cost %v, want checkpoint-all %v", res.Cost, inst.G.TotalCost())
	}
}

// A budget below the residency floor of some stage is infeasible.
func TestIntervalInfeasible(t *testing.T) {
	inst := randomInstance(5)
	inst.Budget = 1 // below MinBudgetLowerBound for every seed family
	res, err := SolveCtx(context.Background(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusInfeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

// Progress hooks fire in order: OnStart exactly once and first, incumbents
// with non-increasing objectives, bounds non-decreasing.
func TestIntervalProgressHooks(t *testing.T) {
	inst := randomInstance(11)
	starts := 0
	lastObj := math.Inf(1)
	lastBound := math.Inf(-1)
	res, err := SolveCtx(context.Background(), inst, Options{
		OnStart: func(vars, rows int) {
			starts++
			if vars <= 0 {
				t.Errorf("OnStart vars %d", vars)
			}
		},
		OnIncumbent: func(obj, bound float64) {
			if starts != 1 {
				t.Error("incumbent before start")
			}
			if obj > lastObj+1e-9 {
				t.Errorf("incumbent objective regressed: %v after %v", obj, lastObj)
			}
			lastObj = obj
		},
		OnBound: func(bound float64) {
			if bound < lastBound-1e-9 {
				t.Errorf("bound regressed: %v after %v", bound, lastBound)
			}
			lastBound = bound
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if starts != 1 {
		t.Fatalf("OnStart fired %d times", starts)
	}
	if res.Sched != nil && math.Abs(lastObj-res.Cost) > 1e-9 {
		t.Fatalf("last incumbent %v != final cost %v", lastObj, res.Cost)
	}
}

// The time limit is honored: a near-zero limit returns promptly with the
// anytime incumbent (or Limit) rather than running the search to closure.
func TestIntervalTimeLimit(t *testing.T) {
	inst := randomInstance(2)
	start := time.Now()
	res, err := SolveCtx(context.Background(), inst, Options{TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("time limit ignored")
	}
	if res.Status == milp.StatusOptimal && res.Nodes > 1 {
		t.Fatalf("claimed optimality after %d nodes under a 1ns limit", res.Nodes)
	}
}

// TestEvaluateIsExactAtPeak: a completed start assignment fits a budget
// equal to its peak and not one byte less.
func TestEvaluateIsExactAtPeak(t *testing.T) {
	inst := trainInstance(1)
	inst.Budget = core.CheckpointAll(inst.G).Peak(inst.G, inst.Overhead)
	pb, err := compile(inst)
	if err != nil {
		t.Fatal(err)
	}
	start, _ := pb.rootDomain() // keep every window from its left edge
	s, _, _, _ := pb.evaluate(start)
	peak := s.Peak(inst.G, inst.Overhead)
	for _, tc := range []struct {
		budget int64
		fits   bool
	}{{peak, true}, {peak - 1, false}} {
		pb.budget = tc.budget
		if _, _, ok, _ := pb.evaluate(start); ok != tc.fits {
			t.Errorf("budget %d (peak %d): ok=%v, want %v", tc.budget, peak, ok, tc.fits)
		}
	}
}
