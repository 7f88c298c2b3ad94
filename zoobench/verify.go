package main

import (
	"context"
	"fmt"
	"math"

	"repro/checkmate"
	"repro/internal/graph"
	"repro/internal/schedule"
)

// Answer is what a planner claims about one schedule: its plan and the
// figures it reports next to it. None of the figures is trusted.
type Answer struct {
	Plan      *schedule.Plan
	Budget    int64
	Cost      float64
	IdealCost float64
	PeakBytes int64
	Optimal   bool
}

// Reference is the benchmark's own view of an instance: a graph built by
// its own checkmate.Load call, and the cheapest budget-feasible baseline
// cost at the instance's budget (+Inf when no baseline fits).
type Reference struct {
	Graph    *graph.Graph
	Overhead int64
	Baseline float64
	RelGap   float64
}

// Check names, one per verifier rule; a failed operation reports which one
// it broke.
const (
	checkReplay       = "replay"
	checkSink         = "sink_not_computed"
	checkOverBudget   = "peak_over_budget"
	checkPeakMismatch = "peak_mismatch"
	checkCost         = "cost_mismatch"
	checkIdeal        = "ideal_mismatch"
	checkFalseOptimal = "false_optimal"
	// checkFalseInfeasible: the planner claims no schedule fits a budget
	// that a verified baseline schedule fits.
	checkFalseInfeasible = "false_infeasible"
	// checkBudget: a service answer is for another budget than asked.
	checkBudget = "budget_mismatch"
)

// costTolerance is the relative tolerance of the reported cost against the
// replayed one.
const costTolerance = 1e-9

// CheckError is a verification failure: the rule broken and what was seen.
type CheckError struct {
	Check  string
	Detail string
}

func (e *CheckError) Error() string { return e.Check + ": " + e.Detail }

func fail(check, format string, args ...any) error {
	return &CheckError{Check: check, Detail: fmt.Sprintf(format, args...)}
}

// Verify replays the answer's plan against the reference graph and checks,
// in order: the plan executes (every compute finds its dependencies
// resident), every sink of the graph is computed, the replayed peak fits the
// budget to the byte, the reported peak and cost equal the replayed ones,
// the reported ideal cost equals the graph's, and a claim of optimality is
// not beaten by a feasible baseline.
func Verify(ref Reference, a Answer) error {
	if a.Plan == nil {
		return fail(checkReplay, "no plan")
	}
	sim, err := schedule.Simulate(ref.Graph, a.Plan, ref.Overhead)
	if err != nil {
		return fail(checkReplay, "%v", err)
	}
	computed := make(map[graph.NodeID]bool)
	for _, st := range a.Plan.Stmts {
		if st.Kind == schedule.OpCompute {
			computed[st.Node] = true
		}
	}
	for _, s := range ref.Graph.Sinks() {
		if !computed[s] {
			return fail(checkSink, "sink v%d never computed", s)
		}
	}
	if sim.PeakBytes > a.Budget {
		return fail(checkOverBudget, "replayed peak %d > budget %d (+%d bytes)", sim.PeakBytes, a.Budget, sim.PeakBytes-a.Budget)
	}
	if a.PeakBytes != sim.PeakBytes {
		return fail(checkPeakMismatch, "reported peak %d, replayed %d", a.PeakBytes, sim.PeakBytes)
	}
	if math.Abs(a.Cost-sim.TotalCost) > costTolerance*math.Abs(sim.TotalCost) {
		return fail(checkCost, "reported cost %.17g, replayed %.17g", a.Cost, sim.TotalCost)
	}
	if ideal := ref.Graph.TotalCost(); a.IdealCost != ideal {
		return fail(checkIdeal, "reported ideal cost %.17g, graph total %.17g", a.IdealCost, ideal)
	}
	if a.Optimal && sim.TotalCost > ref.Baseline*(1+ref.RelGap) {
		return fail(checkFalseOptimal, "claims optimal at cost %.17g, a baseline costs %.17g", sim.TotalCost, ref.Baseline)
	}
	return nil
}

// VerifyInfeasible checks a planner's claim that no schedule fits the
// instance's budget: the claim is false when set-up found a baseline
// schedule that verifies within that budget.
func VerifyInfeasible(ref Reference) error {
	if !math.IsInf(ref.Baseline, 1) {
		return fail(checkFalseInfeasible, "claims infeasible, a baseline schedule fits at cost %.17g", ref.Baseline)
	}
	return nil
}

// cheapestBaseline runs every prior-work heuristic at the budget through
// checkmate.Solve and returns the lowest replayed cost among those whose
// schedules verify within the budget — an optimality reference that shares
// no code with lp, milp or interval. A heuristic that does not apply to the
// graph (Chen's √n needs a linear one) or does not fit is skipped; the
// result is +Inf when none fits.
func cheapestBaseline(ctx context.Context, wl *checkmate.Workload, g *graph.Graph, overhead, budget int64) (float64, error) {
	best := math.Inf(1)
	ref := Reference{Graph: g, Overhead: overhead, Baseline: math.Inf(1)}
	for _, name := range checkmate.BaselineNames() {
		s, err := checkmate.Solve(ctx, checkmate.Request{Workload: wl, Method: checkmate.Baseline, Baseline: name, Budget: budget})
		if cerr := ctx.Err(); cerr != nil {
			return 0, fmt.Errorf("baseline %s: %w", name, cerr)
		}
		if err != nil {
			continue
		}
		a := Answer{Plan: s.Plan, Budget: budget, Cost: s.Cost, IdealCost: s.IdealCost, PeakBytes: s.PeakBytes}
		if Verify(ref, a) != nil {
			continue
		}
		best = math.Min(best, s.Cost)
	}
	return best, nil
}
