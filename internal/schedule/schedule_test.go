package schedule

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/milp"
)

func chainGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{Name: "v", Cost: 1, Mem: 2})
	}
	for i := 1; i < n; i++ {
		g.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	return g
}

func TestGenerateCheckpointAll(t *testing.T) {
	g := chainGraph(5)
	s := core.CheckpointAll(g)
	p, err := Generate(g, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(g, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Computes != 5 {
		t.Fatalf("computes=%d want 5", res.Computes)
	}
	if res.TotalCost != 5 {
		t.Fatalf("cost=%v", res.TotalCost)
	}
	// All 5 values of 2 bytes live at the end.
	if res.PeakBytes != 10 {
		t.Fatalf("peak=%d want 10", res.PeakBytes)
	}
}

// TestSimulatorMatchesUAccounting: the plan simulator's peak must equal the
// schedule's U-matrix accounting for optimally solved schedules.
func TestSimulatorMatchesUAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(4)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddNode(graph.Node{Cost: float64(1 + rng.Intn(3)), Mem: int64(1 + rng.Intn(4))})
		}
		for i := 1; i < n; i++ {
			g.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
			if i >= 2 && rng.Float64() < 0.3 {
				g.MustEdge(graph.NodeID(rng.Intn(i-1)), graph.NodeID(i))
			}
		}
		budget := core.MinBudgetLowerBound(g, 0) + rng.Int63n(8)
		res, err := core.SolveILPCtx(context.Background(), core.Instance{G: g, Budget: budget}, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != milp.StatusOptimal {
			continue
		}
		p, err := Generate(g, res.Sched)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Simulate(g, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sim.PeakBytes, res.Sched.Peak(g, 0); got != want {
			t.Fatalf("trial %d: simulator peak %d != U accounting %d", trial, got, want)
		}
		if sim.TotalCost != res.Cost {
			t.Fatalf("trial %d: simulator cost %v != schedule cost %v", trial, sim.TotalCost, res.Cost)
		}
		if sim.PeakBytes > budget {
			t.Fatalf("trial %d: peak %d over budget %d", trial, sim.PeakBytes, budget)
		}
	}
}

func TestCodeMotionNeverIncreasesPeak(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddNode(graph.Node{Cost: 1, Mem: int64(1 + rng.Intn(4))})
		}
		for i := 1; i < n; i++ {
			g.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
		}
		budget := core.MinBudgetLowerBound(g, 0) + rng.Int63n(6)
		res, err := core.SolveILPCtx(context.Background(), core.Instance{G: g, Budget: budget}, core.SolveOptions{})
		if err != nil || res.Sched == nil {
			return true
		}
		p, err := Generate(g, res.Sched)
		if err != nil {
			return false
		}
		before, err := Simulate(g, p, 0)
		if err != nil {
			return false
		}
		moved := MoveDeallocationsEarlier(g, p)
		after, err := Simulate(g, moved, 0)
		if err != nil {
			return false
		}
		// Code motion may only lower (or keep) the peak, and must preserve
		// compute statements exactly.
		return after.PeakBytes <= before.PeakBytes && after.Computes == before.Computes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateCatchesDoubleFree(t *testing.T) {
	g := chainGraph(2)
	p := &Plan{
		Stmts: []Stmt{
			{Kind: OpAllocate, Node: 0, Reg: 0},
			{Kind: OpCompute, Node: 0, Reg: 0},
			{Kind: OpDeallocate, Reg: 0},
			{Kind: OpDeallocate, Reg: 0},
		},
		NumRegs: 1,
		RegNode: []graph.NodeID{0},
	}
	if _, err := Simulate(g, p, 0); err == nil {
		t.Fatal("double free not caught")
	}
}

func TestSimulateCatchesMissingDep(t *testing.T) {
	g := chainGraph(2)
	p := &Plan{
		Stmts: []Stmt{
			{Kind: OpAllocate, Node: 1, Reg: 0},
			{Kind: OpCompute, Node: 1, Reg: 0},
		},
		NumRegs: 1,
		RegNode: []graph.NodeID{1},
	}
	if _, err := Simulate(g, p, 0); err == nil {
		t.Fatal("missing dependency not caught")
	}
}

func TestSimulateCatchesDoubleCompute(t *testing.T) {
	g := chainGraph(1)
	p := &Plan{
		Stmts: []Stmt{
			{Kind: OpAllocate, Node: 0, Reg: 0},
			{Kind: OpCompute, Node: 0, Reg: 0},
			{Kind: OpCompute, Node: 0, Reg: 0},
		},
		NumRegs: 1,
		RegNode: []graph.NodeID{0},
	}
	if _, err := Simulate(g, p, 0); err == nil {
		t.Fatal("double compute into one register not caught")
	}
}

func TestTraceMonotoneSections(t *testing.T) {
	// The memory trace of Figure 1 style: allocations rise, deallocations
	// fall; the trace length equals the statement count.
	g := chainGraph(6)
	s := core.CheckpointAll(g)
	p, err := Generate(g, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(g, p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != len(p.Stmts) {
		t.Fatalf("trace length %d != stmts %d", len(res.Trace), len(p.Stmts))
	}
	if res.Trace[0] < 100 {
		t.Fatal("trace must include overhead")
	}
}

func TestStageBoundaries(t *testing.T) {
	g := chainGraph(4)
	s := core.CheckpointAll(g)
	p, err := Generate(g, s)
	if err != nil {
		t.Fatal(err)
	}
	bounds := StageBoundaries(p)
	if len(bounds) != 4 {
		t.Fatalf("want 4 stages, got %d", len(bounds))
	}
	if bounds[0] != 0 {
		t.Fatal("first stage must start at statement 0")
	}
}

func TestPlanString(t *testing.T) {
	g := chainGraph(2)
	s := core.CheckpointAll(g)
	p, err := Generate(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if str := p.String(); len(str) == 0 {
		t.Fatal("empty plan rendering")
	}
	for _, st := range p.Stmts {
		if st.String() == "?" {
			t.Fatal("unknown statement kind rendered")
		}
	}
}
