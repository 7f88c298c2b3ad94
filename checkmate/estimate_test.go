package checkmate

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/graph"
)

// chainWorkload builds a linear training DAG of n unit nodes.
func chainWorkload(t testing.TB, n int) *Workload {
	t.Helper()
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{Name: fmt.Sprintf("op%d", i), Cost: 1, Mem: 1})
		if i > 0 {
			g.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
		}
	}
	wl, err := FromGraph(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestEstimateSolveCostGrowsWithGraphSize(t *testing.T) {
	small := chainWorkload(t, 10)
	large := chainWorkload(t, 100)
	cs := small.EstimateSolveCostFor(Request{Method: Optimal, Budget: small.CheckpointAllPeak()})
	cl := large.EstimateSolveCostFor(Request{Method: Optimal, Budget: large.CheckpointAllPeak()})
	if cl <= cs {
		t.Fatalf("100-node estimate %v not above 10-node estimate %v", cl, cs)
	}
	// n^2.5 scaling: a 10× larger graph should cost orders of magnitude more.
	if cl < 50*cs {
		t.Fatalf("estimate scales too weakly with size: %v vs %v", cl, cs)
	}
}

func TestEstimateSolveCostGrowsWithBudgetTightness(t *testing.T) {
	wl := chainWorkload(t, 40)
	at := func(budget int64) float64 {
		return wl.EstimateSolveCostFor(Request{Method: Optimal, Budget: budget})
	}
	loose := at(wl.CheckpointAllPeak())
	tight := at(wl.MinBudget())
	if tight <= loose {
		t.Fatalf("tight-budget estimate %v not above loose-budget %v", tight, loose)
	}
	mid := at((wl.MinBudget() + wl.CheckpointAllPeak()) / 2)
	if mid <= loose || mid >= tight {
		t.Fatalf("mid-budget estimate %v not between %v and %v", mid, loose, tight)
	}
}

func TestEstimateSolveCostApproxCheaperThanOptimal(t *testing.T) {
	wl := chainWorkload(t, 40)
	budget := (wl.MinBudget() + wl.CheckpointAllPeak()) / 2
	optimal := wl.EstimateSolveCostFor(Request{Method: Optimal, Budget: budget})
	apx := wl.EstimateSolveCostFor(Request{Method: Approx, Budget: budget})
	if apx >= optimal {
		t.Fatalf("approx estimate %v not below optimal estimate %v", apx, optimal)
	}
	// Accepting an optimality gap must not cost more than proving exactness.
	gap := wl.EstimateSolveCostFor(Request{Method: Optimal, Budget: budget, RelGap: 0.05})
	if gap > optimal {
		t.Fatalf("gap-accepting estimate %v above prove-optimal estimate %v", gap, optimal)
	}
}

// TestEstimateSolveCostForGolden pins every method's admission estimate,
// capped at the request's time limit as admission caps it, bit for bit on
// fixed chain workloads, budgets and solver knobs. Admission calibration
// history depends on the values not drifting.
func TestEstimateSolveCostForGolden(t *testing.T) {
	methods := [6]Method{Optimal, Approx, Baseline, Interval, Anytime, Auto}
	cases := []struct {
		nodes  int
		budget int64
		knobs  Request
		bits   [6]uint64
	}{
		{40, 2, Request{TimeLimit: 30 * time.Second, RelGap: 0, Threads: 0}, [6]uint64{0x409f9f6e4990f228, 0x406f9f6e4990f228, 0x409f9f6e4990f228, 0x406f9f6e4990f228, 0x409f9f6e4990f228, 0x409f9f6e4990f228}},
		{40, 2, Request{TimeLimit: 5 * time.Second, RelGap: 0.05, Threads: 4}, [6]uint64{0x40794c583ada5b53, 0x406f9f6e4990f228, 0x40794c583ada5b53, 0x406f9f6e4990f228, 0x40794c583ada5b53, 0x40794c583ada5b53}},
		{40, 2, Request{TimeLimit: 0, RelGap: 0, Threads: 0}, [6]uint64{0x409f9f6e4990f228, 0x406f9f6e4990f228, 0x409f9f6e4990f228, 0x406f9f6e4990f228, 0x409f9f6e4990f228, 0x409f9f6e4990f228}},
		{40, 2, Request{TimeLimit: 100 * time.Millisecond, RelGap: 0, Threads: 0}, [6]uint64{0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000}},
		{40, 2, Request{TimeLimit: time.Hour, RelGap: 0.05, Threads: 0}, [6]uint64{0x408f9f6e4990f228, 0x406f9f6e4990f228, 0x408f9f6e4990f228, 0x406f9f6e4990f228, 0x408f9f6e4990f228, 0x408f9f6e4990f228}},
		{40, 2, Request{TimeLimit: 30 * time.Second, RelGap: 0, Threads: 3}, [6]uint64{0x408f9f6e4990f228, 0x406f9f6e4990f228, 0x408f9f6e4990f228, 0x406f9f6e4990f228, 0x408f9f6e4990f228, 0x408f9f6e4990f228}},
		{40, 21, Request{TimeLimit: 30 * time.Second, RelGap: 0, Threads: 0}, [6]uint64{0x40848e07afd16a33, 0x40548e07afd16a33, 0x40848e07afd16a33, 0x40548e07afd16a33, 0x40848e07afd16a33, 0x40848e07afd16a33}},
		{40, 21, Request{TimeLimit: 5 * time.Second, RelGap: 0.05, Threads: 4}, [6]uint64{0x4060719fbfdabb5c, 0x40548e07afd16a33, 0x4060719fbfdabb5c, 0x40548e07afd16a33, 0x4060719fbfdabb5c, 0x4060719fbfdabb5c}},
		{40, 21, Request{TimeLimit: 0, RelGap: 0, Threads: 0}, [6]uint64{0x40848e07afd16a33, 0x40548e07afd16a33, 0x40848e07afd16a33, 0x40548e07afd16a33, 0x40848e07afd16a33, 0x40848e07afd16a33}},
		{40, 21, Request{TimeLimit: 100 * time.Millisecond, RelGap: 0, Threads: 0}, [6]uint64{0x4059000000000000, 0x40548e07afd16a33, 0x4059000000000000, 0x40548e07afd16a33, 0x4059000000000000, 0x4059000000000000}},
		{40, 21, Request{TimeLimit: time.Hour, RelGap: 0.05, Threads: 0}, [6]uint64{0x40748e07afd16a33, 0x40548e07afd16a33, 0x40748e07afd16a33, 0x40548e07afd16a33, 0x40748e07afd16a33, 0x40748e07afd16a33}},
		{40, 21, Request{TimeLimit: 30 * time.Second, RelGap: 0, Threads: 3}, [6]uint64{0x40748e07afd16a33, 0x40548e07afd16a33, 0x40748e07afd16a33, 0x40548e07afd16a33, 0x40748e07afd16a33, 0x40748e07afd16a33}},
		{40, 40, Request{TimeLimit: 30 * time.Second, RelGap: 0, Threads: 0}, [6]uint64{0x40694c583ada5b53, 0x40394c583ada5b53, 0x40694c583ada5b53, 0x40394c583ada5b53, 0x40694c583ada5b53, 0x40694c583ada5b53}},
		{40, 40, Request{TimeLimit: 5 * time.Second, RelGap: 0.05, Threads: 4}, [6]uint64{0x40443d136248490f, 0x40394c583ada5b53, 0x40443d136248490f, 0x40394c583ada5b53, 0x40443d136248490f, 0x40443d136248490f}},
		{40, 40, Request{TimeLimit: 0, RelGap: 0, Threads: 0}, [6]uint64{0x40694c583ada5b53, 0x40394c583ada5b53, 0x40694c583ada5b53, 0x40394c583ada5b53, 0x40694c583ada5b53, 0x40694c583ada5b53}},
		{40, 40, Request{TimeLimit: 100 * time.Millisecond, RelGap: 0, Threads: 0}, [6]uint64{0x4059000000000000, 0x40394c583ada5b53, 0x4059000000000000, 0x40394c583ada5b53, 0x4059000000000000, 0x4059000000000000}},
		{40, 40, Request{TimeLimit: time.Hour, RelGap: 0.05, Threads: 0}, [6]uint64{0x40594c583ada5b53, 0x40394c583ada5b53, 0x40594c583ada5b53, 0x40394c583ada5b53, 0x40594c583ada5b53, 0x40594c583ada5b53}},
		{40, 40, Request{TimeLimit: 30 * time.Second, RelGap: 0, Threads: 3}, [6]uint64{0x40594c583ada5b53, 0x40394c583ada5b53, 0x40594c583ada5b53, 0x40394c583ada5b53, 0x40594c583ada5b53, 0x40594c583ada5b53}},
		{100, 2, Request{TimeLimit: 30 * time.Second, RelGap: 0, Threads: 0}, [6]uint64{0x40d3880000000000, 0x40a3880000000000, 0x40d3880000000000, 0x408f400000000000, 0x40d3880000000000, 0x408f400000000000}},
		{100, 2, Request{TimeLimit: 5 * time.Second, RelGap: 0.05, Threads: 4}, [6]uint64{0x40af400000000000, 0x40a3880000000000, 0x40af400000000000, 0x408f400000000000, 0x40af400000000000, 0x408f400000000000}},
		{100, 2, Request{TimeLimit: 0, RelGap: 0, Threads: 0}, [6]uint64{0x40d3880000000000, 0x40a3880000000000, 0x40d3880000000000, 0x408f400000000000, 0x40d3880000000000, 0x408f400000000000}},
		{100, 2, Request{TimeLimit: 100 * time.Millisecond, RelGap: 0, Threads: 0}, [6]uint64{0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000}},
		{100, 2, Request{TimeLimit: time.Hour, RelGap: 0.05, Threads: 0}, [6]uint64{0x40c3880000000000, 0x40a3880000000000, 0x40c3880000000000, 0x408f400000000000, 0x40c3880000000000, 0x408f400000000000}},
		{100, 2, Request{TimeLimit: 30 * time.Second, RelGap: 0, Threads: 3}, [6]uint64{0x40c3880000000000, 0x40a3880000000000, 0x40c3880000000000, 0x408f400000000000, 0x40c3880000000000, 0x408f400000000000}},
		{100, 51, Request{TimeLimit: 30 * time.Second, RelGap: 0, Threads: 0}, [6]uint64{0x40b9640000000000, 0x4089640000000000, 0x40b9640000000000, 0x4074500000000000, 0x40b9640000000000, 0x4074500000000000}},
		{100, 51, Request{TimeLimit: 5 * time.Second, RelGap: 0.05, Threads: 4}, [6]uint64{0x4094500000000000, 0x4089640000000000, 0x4094500000000000, 0x4074500000000000, 0x4094500000000000, 0x4074500000000000}},
		{100, 51, Request{TimeLimit: 0, RelGap: 0, Threads: 0}, [6]uint64{0x40b9640000000000, 0x4089640000000000, 0x40b9640000000000, 0x4074500000000000, 0x40b9640000000000, 0x4074500000000000}},
		{100, 51, Request{TimeLimit: 100 * time.Millisecond, RelGap: 0, Threads: 0}, [6]uint64{0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000}},
		{100, 51, Request{TimeLimit: time.Hour, RelGap: 0.05, Threads: 0}, [6]uint64{0x40a9640000000000, 0x4089640000000000, 0x40a9640000000000, 0x4074500000000000, 0x40a9640000000000, 0x4074500000000000}},
		{100, 51, Request{TimeLimit: 30 * time.Second, RelGap: 0, Threads: 3}, [6]uint64{0x40a9640000000000, 0x4089640000000000, 0x40a9640000000000, 0x4074500000000000, 0x40a9640000000000, 0x4074500000000000}},
		{100, 100, Request{TimeLimit: 30 * time.Second, RelGap: 0, Threads: 0}, [6]uint64{0x409f400000000000, 0x406f400000000000, 0x409f400000000000, 0x4059000000000000, 0x409f400000000000, 0x4059000000000000}},
		{100, 100, Request{TimeLimit: 5 * time.Second, RelGap: 0.05, Threads: 4}, [6]uint64{0x4079000000000000, 0x406f400000000000, 0x4079000000000000, 0x4059000000000000, 0x4079000000000000, 0x4059000000000000}},
		{100, 100, Request{TimeLimit: 0, RelGap: 0, Threads: 0}, [6]uint64{0x409f400000000000, 0x406f400000000000, 0x409f400000000000, 0x4059000000000000, 0x409f400000000000, 0x4059000000000000}},
		{100, 100, Request{TimeLimit: 100 * time.Millisecond, RelGap: 0, Threads: 0}, [6]uint64{0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000, 0x4059000000000000}},
		{100, 100, Request{TimeLimit: time.Hour, RelGap: 0.05, Threads: 0}, [6]uint64{0x408f400000000000, 0x406f400000000000, 0x408f400000000000, 0x4059000000000000, 0x408f400000000000, 0x4059000000000000}},
		{100, 100, Request{TimeLimit: 30 * time.Second, RelGap: 0, Threads: 3}, [6]uint64{0x408f400000000000, 0x406f400000000000, 0x408f400000000000, 0x4059000000000000, 0x408f400000000000, 0x4059000000000000}},
	}
	workloads := map[int]*Workload{}
	for _, tc := range cases {
		wl, ok := workloads[tc.nodes]
		if !ok {
			wl = chainWorkload(t, tc.nodes)
			workloads[tc.nodes] = wl
		}
		for i, m := range methods {
			req := tc.knobs
			req.Method, req.Budget = m, tc.budget
			got := min(wl.EstimateSolveCostFor(req), float64(req.timeLimit().Milliseconds()))
			if math.Float64bits(got) != tc.bits[i] {
				t.Errorf("n=%d budget=%d limit=%v gap=%v threads=%d %s: estimate %v (%#016x), want %v (%#016x)",
					tc.nodes, tc.budget, tc.knobs.TimeLimit, tc.knobs.RelGap, tc.knobs.Threads, m, got, math.Float64bits(got), math.Float64frombits(tc.bits[i]), tc.bits[i])
			}
		}
	}
}
