package exec

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/milp"
	"repro/internal/schedule"
)

func buildMachine(t *testing.T) (*MLP, *Machine) {
	t.Helper()
	mlp := NewMLP([]int{6, 8, 8, 4}, 16, 42)
	m := mlp.Machine()
	if err := m.G.Validate(true); err != nil {
		t.Fatal(err)
	}
	if !m.G.IsTopoSorted() {
		t.Fatal("machine graph not topo sorted")
	}
	return mlp, m
}

func planFor(t *testing.T, m *Machine, s *core.Sched) *schedule.Plan {
	t.Helper()
	p, err := schedule.Generate(m.G, s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCheckpointAllExecution(t *testing.T) {
	mlp, m := buildMachine(t)
	s := core.CheckpointAll(m.G)
	p := planFor(t, m, s)
	vals, err := m.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := vals[mlp.Terminal]; !ok {
		t.Fatal("terminal node never computed")
	}
	// Every weight gradient must be produced and have the right size.
	for i, wg := range mlp.WGrad {
		v := vals[wg]
		want := mlp.Widths[i+1] * mlp.Widths[i]
		if len(v) != want {
			t.Fatalf("wg%d has %d elements, want %d", i, len(v), want)
		}
	}
}

// TestRematerializedExecutionBitIdentical is the end-to-end correctness
// proof: solve the MILP at a tight budget, execute the rematerialized plan
// on real tensors, and require bit-identical weight gradients versus the
// checkpoint-all execution (Section 3: rematerialization "is mathematically
// equivalent to rematerialization-free training").
func TestRematerializedExecutionBitIdentical(t *testing.T) {
	mlp, m := buildMachine(t)

	base := core.CheckpointAll(m.G)
	basePeak := base.Peak(m.G, m.Overhead)
	baseVals, err := m.Execute(planFor(t, m, base))
	if err != nil {
		t.Fatal(err)
	}

	// Solve between the feasibility floor and the checkpoint-all peak:
	// low enough to force rematerialization, high enough to be feasible.
	minB := core.MinBudgetLowerBound(m.G, m.Overhead)
	budget := minB + (basePeak-minB)/4
	res, err := core.SolveILPCtx(context.Background(), core.Instance{G: m.G, Budget: budget, Overhead: m.Overhead}, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal && res.Status != milp.StatusFeasible {
		t.Fatalf("ILP status %v at budget %d (base peak %d)", res.Status, budget, basePeak)
	}
	if res.Sched.Recomputations() == 0 {
		t.Fatal("budget should force recomputation")
	}
	plan := planFor(t, m, res.Sched)
	sim, err := schedule.Simulate(m.G, plan, m.Overhead)
	if err != nil {
		t.Fatal(err)
	}
	if sim.PeakBytes > budget {
		t.Fatalf("plan peak %d exceeds budget %d", sim.PeakBytes, budget)
	}

	rematVals, err := m.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i, wg := range mlp.WGrad {
		a, b := baseVals[wg], rematVals[wg]
		if len(a) != len(b) {
			t.Fatalf("wg%d length mismatch", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("wg%d[%d]: %v != %v — rematerialization changed the math", i, j, a[j], b[j])
			}
		}
	}
}

func TestExecuteMissingDepFails(t *testing.T) {
	_, m := buildMachine(t)
	// Find a node with dependencies and try to compute it cold.
	target := graph.NodeID(-1)
	for v := 0; v < m.G.Len(); v++ {
		if len(m.G.Deps(graph.NodeID(v))) > 0 {
			target = graph.NodeID(v)
			break
		}
	}
	if target < 0 {
		t.Fatal("no dependent node found")
	}
	bad := &schedule.Plan{
		Stmts: []schedule.Stmt{
			{Kind: schedule.OpAllocate, Node: target, Reg: 0},
			{Kind: schedule.OpCompute, Node: target, Reg: 0},
		},
		NumRegs: 1,
		RegNode: []graph.NodeID{target},
	}
	if _, err := m.Execute(bad); err == nil {
		t.Fatal("execution of incorrect plan must fail")
	}
}

func TestExecuteUseAfterFreeFails(t *testing.T) {
	_, m := buildMachine(t)
	s := core.CheckpointAll(m.G)
	p, err := schedule.Generate(m.G, s)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the plan: deallocate register 0 right after computing it,
	// then let a later consumer read it.
	var corrupted []schedule.Stmt
	injected := false
	for _, st := range p.Stmts {
		corrupted = append(corrupted, st)
		if !injected && st.Kind == schedule.OpCompute && len(m.G.Users(st.Node)) > 0 {
			corrupted = append(corrupted, schedule.Stmt{Kind: schedule.OpDeallocate, Reg: st.Reg})
			injected = true
		}
	}
	bad := &schedule.Plan{Stmts: corrupted, NumRegs: p.NumRegs, RegNode: p.RegNode}
	if _, err := m.Execute(bad); err == nil {
		t.Fatal("use-after-free plan must fail")
	}
}
