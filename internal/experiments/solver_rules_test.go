package experiments

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSolverRuleIndependenceOnSeedWorkload is the acceptance property of the
// solver hot-path overhaul on a real rematerialization MILP: every
// combination of {steepest-edge/bound-flipping, classic} LP pivot rules and
// {pseudo-cost, most-fractional} branching proves the same optimal schedule
// cost, and the new-machinery counters flow where expected.
func TestSolverRuleIndependenceOnSeedWorkload(t *testing.T) {
	g, err := solverBenchGraph(10)
	if err != nil {
		t.Fatal(err)
	}
	minB := core.MinBudgetLowerBound(g, 0)
	peak := core.CheckpointAll(g).Peak(g, 0)
	budget := minB + (peak-minB)/5 // tight: forces a real search tree
	inst := core.Instance{G: g, Budget: budget}
	base := core.SolveOptions{TimeLimit: 120 * time.Second, DisableRounding: true}

	type cfg struct {
		name     string
		dantzig  bool
		mostFrac bool
	}
	cfgs := []cfg{
		{"pseudo+steepest", false, false},
		{"mostfrac+steepest", false, true},
		{"pseudo+classic", true, false},
		{"mostfrac+classic", true, true},
	}
	want := math.NaN()
	for _, c := range cfgs {
		o := base
		o.Dantzig = c.dantzig
		o.MostFractional = c.mostFrac
		res, err := core.SolveILPCtx(context.Background(), inst, o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Sched == nil {
			t.Fatalf("%s: no schedule", c.name)
		}
		if math.IsNaN(want) {
			want = res.Cost
		} else if math.Abs(res.Cost-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("%s: cost %v != %v from %s", c.name, res.Cost, want, cfgs[0].name)
		}
		ctr := res.Solver
		if c.dantzig && (ctr.PricingUpdates != 0 || ctr.BoundFlips != 0) {
			t.Fatalf("%s: classic rules reported steepest-edge activity: %+v", c.name, ctr)
		}
		if !c.dantzig && ctr.PricingUpdates == 0 && ctr.DualIters > 0 {
			t.Fatalf("%s: dual pivots ran but no pricing updates recorded: %+v", c.name, ctr)
		}
		if c.mostFrac && (ctr.StrongBranchProbes != 0 || ctr.PseudoReliable != 0) {
			t.Fatalf("%s: most-fractional reported pseudo-cost activity: %+v", c.name, ctr)
		}
	}
}
