package lp

import (
	"math"
	"math/rand"
	"testing"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSimpleLP(t *testing.T) {
	// max x+y s.t. x+2y<=4, 3x+y<=6, x,y>=0  -> min -(x+y)
	// Optimum at intersection: x=8/5, y=6/5, obj=-14/5.
	var p Problem
	x := p.AddVar(0, Inf, -1, "x")
	y := p.AddVar(0, Inf, -1, "y")
	p.AddRow(LE, 4, []int32{int32(x), int32(y)}, []float64{1, 2})
	p.AddRow(LE, 6, []int32{int32(x), int32(y)}, []float64{3, 1})
	sol := p.Solve(Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status=%v", sol.Status)
	}
	if !approxEq(sol.Obj, -14.0/5, 1e-6) {
		t.Fatalf("obj=%v want -2.8", sol.Obj)
	}
	if !approxEq(sol.X[x], 1.6, 1e-6) || !approxEq(sol.X[y], 1.2, 1e-6) {
		t.Fatalf("x=%v", sol.X)
	}
}

func TestEqualityLP(t *testing.T) {
	// min x+y s.t. x+y=3, x-y=1 -> x=2,y=1, obj=3.
	var p Problem
	x := p.AddVar(0, Inf, 1, "x")
	y := p.AddVar(0, Inf, 1, "y")
	p.AddRow(EQ, 3, []int32{int32(x), int32(y)}, []float64{1, 1})
	p.AddRow(EQ, 1, []int32{int32(x), int32(y)}, []float64{1, -1})
	sol := p.Solve(Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status=%v", sol.Status)
	}
	if !approxEq(sol.X[x], 2, 1e-7) || !approxEq(sol.X[y], 1, 1e-7) {
		t.Fatalf("x=%v", sol.X)
	}
}

func TestBoundedVariablesAndFlips(t *testing.T) {
	// min -x1-2x2 s.t. x1+x2 <= 5, x1 in [0,3], x2 in [0,4].
	// Optimum: x2=4 (its upper bound), x1=1, obj=-9.
	var p Problem
	x1 := p.AddVar(0, 3, -1, "x1")
	x2 := p.AddVar(0, 4, -2, "x2")
	p.AddRow(LE, 5, []int32{int32(x1), int32(x2)}, []float64{1, 1})
	sol := p.Solve(Options{})
	if sol.Status != StatusOptimal || !approxEq(sol.Obj, -9, 1e-7) {
		t.Fatalf("status=%v obj=%v x=%v", sol.Status, sol.Obj, sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	var p Problem
	x := p.AddVar(0, Inf, 1, "x")
	p.AddRow(LE, 1, []int32{int32(x)}, []float64{1})
	p.AddRow(GE, 2, []int32{int32(x)}, []float64{1})
	if sol := p.Solve(Options{}); sol.Status != StatusInfeasible {
		t.Fatalf("status=%v", sol.Status)
	}
}

func TestInfeasibleBounds(t *testing.T) {
	var p Problem
	x := p.AddVar(2, 5, 1, "x")
	y := p.AddVar(2, 5, 1, "y")
	p.AddRow(LE, 3, []int32{int32(x), int32(y)}, []float64{1, 1})
	if sol := p.Solve(Options{}); sol.Status != StatusInfeasible {
		t.Fatalf("status=%v", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	var p Problem
	x := p.AddVar(0, Inf, -1, "x")
	y := p.AddVar(0, Inf, 0, "y")
	p.AddRow(LE, 1, []int32{int32(y)}, []float64{1})
	_ = x
	if sol := p.Solve(Options{}); sol.Status != StatusUnbounded {
		t.Fatalf("status=%v", sol.Status)
	}
}

func TestFixedVariable(t *testing.T) {
	var p Problem
	x := p.AddVar(2, 2, 5, "x") // fixed
	y := p.AddVar(0, Inf, 1, "y")
	p.AddRow(GE, 5, []int32{int32(x), int32(y)}, []float64{1, 1})
	sol := p.Solve(Options{})
	if sol.Status != StatusOptimal || !approxEq(sol.X[x], 2, 1e-9) || !approxEq(sol.X[y], 3, 1e-7) {
		t.Fatalf("status=%v x=%v", sol.Status, sol.X)
	}
}

func TestFreeVariable(t *testing.T) {
	// min x s.t. x >= -7 via row (free variable).
	var p Problem
	x := p.AddVar(math.Inf(-1), Inf, 1, "x")
	p.AddRow(GE, -7, []int32{int32(x)}, []float64{1})
	sol := p.Solve(Options{})
	if sol.Status != StatusOptimal || !approxEq(sol.X[x], -7, 1e-7) {
		t.Fatalf("status=%v x=%v", sol.Status, sol.X)
	}
}

func TestNegativeRHSEquality(t *testing.T) {
	// min |ish| with negative RHS exercising artificial sign handling.
	var p Problem
	x := p.AddVar(0, Inf, 1, "x")
	y := p.AddVar(0, Inf, 2, "y")
	p.AddRow(EQ, -3, []int32{int32(x), int32(y)}, []float64{-1, -1}) // x+y=3
	sol := p.Solve(Options{})
	if sol.Status != StatusOptimal || !approxEq(sol.Obj, 3, 1e-7) {
		t.Fatalf("status=%v obj=%v", sol.Status, sol.Obj)
	}
}

func TestDegenerateLP(t *testing.T) {
	// A classically degenerate instance (multiple constraints active at the
	// optimum). Beale's cycling example adapted: ensure termination.
	var p Problem
	x1 := p.AddVar(0, Inf, -0.75, "x1")
	x2 := p.AddVar(0, Inf, 150, "x2")
	x3 := p.AddVar(0, Inf, -0.02, "x3")
	x4 := p.AddVar(0, Inf, 6, "x4")
	p.AddRow(LE, 0, []int32{int32(x1), int32(x2), int32(x3), int32(x4)}, []float64{0.25, -60, -0.04, 9})
	p.AddRow(LE, 0, []int32{int32(x1), int32(x2), int32(x3), int32(x4)}, []float64{0.5, -90, -0.02, 3})
	p.AddRow(LE, 1, []int32{int32(x3)}, []float64{1})
	sol := p.Solve(Options{})
	if sol.Status != StatusOptimal || !approxEq(sol.Obj, -0.05, 1e-7) {
		t.Fatalf("status=%v obj=%v (want -0.05)", sol.Status, sol.Obj)
	}
}

// TestRandomLPDualityCertificate solves random dense-ish LPs and verifies
// the result with an independent optimality certificate: the returned point
// must be feasible and its objective must match the Lagrangian dual bound
// computed from the returned dual vector (strong duality).
func TestRandomLPDualityCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	solved := 0
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(8)
		var p Problem
		for j := 0; j < n; j++ {
			lo, hi := 0.0, float64(1+rng.Intn(10))
			if rng.Float64() < 0.2 {
				hi = Inf
			}
			if rng.Float64() < 0.15 {
				lo = -float64(rng.Intn(5))
			}
			p.AddVar(lo, hi, float64(rng.Intn(21)-10), "v")
		}
		for i := 0; i < m; i++ {
			var idx []int32
			var val []float64
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.6 {
					idx = append(idx, int32(j))
					val = append(val, float64(rng.Intn(11)-5))
				}
			}
			if len(idx) == 0 {
				idx = append(idx, int32(rng.Intn(n)))
				val = append(val, 1)
			}
			sense := Sense(rng.Intn(3))
			p.AddRow(sense, float64(rng.Intn(21)-8), idx, val)
		}
		sol := p.Solve(Options{})
		switch sol.Status {
		case StatusOptimal:
			solved++
			if err := p.CheckFeasible(sol.X, 1e-5); err != nil {
				t.Fatalf("trial %d: solution infeasible: %v", trial, err)
			}
			if !approxEq(p.Objective(sol.X), sol.Obj, 1e-5) {
				t.Fatalf("trial %d: objective mismatch", trial)
			}
			if len(sol.Duals) > 0 {
				g := p.DualBound(sol.Duals)
				if !math.IsInf(g, -1) && !approxEq(g, sol.Obj, 1e-4*(1+math.Abs(sol.Obj))) {
					t.Fatalf("trial %d: dual bound %v != primal %v", trial, g, sol.Obj)
				}
			}
		case StatusInfeasible, StatusUnbounded:
			// Accepted outcomes for random instances.
		default:
			t.Fatalf("trial %d: status %v after %d iters", trial, sol.Status, sol.Iters)
		}
	}
	if solved < 20 {
		t.Fatalf("too few random LPs solved to optimality: %d", solved)
	}
}

// TestRandomFeasibleLPs constructs LPs that are feasible by design (rows are
// consistent with a known point) and checks the solver never reports
// infeasible and never returns an objective worse than the known point.
func TestRandomFeasibleLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(10)
		m := 1 + rng.Intn(10)
		var p Problem
		x0 := make([]float64, n)
		for j := 0; j < n; j++ {
			lo, hi := 0.0, 10.0
			p.AddVar(lo, hi, float64(rng.Intn(21)-10), "v")
			x0[j] = float64(rng.Intn(11))
		}
		for i := 0; i < m; i++ {
			var idx []int32
			var val []float64
			var lhs float64
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.5 {
					c := float64(rng.Intn(11) - 5)
					idx = append(idx, int32(j))
					val = append(val, c)
					lhs += c * x0[j]
				}
			}
			if len(idx) == 0 {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				p.AddRow(LE, lhs+float64(rng.Intn(5)), idx, val)
			case 1:
				p.AddRow(GE, lhs-float64(rng.Intn(5)), idx, val)
			default:
				p.AddRow(EQ, lhs, idx, val)
			}
		}
		sol := p.Solve(Options{})
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status=%v (problem is feasible by construction)", trial, sol.Status)
		}
		if err := p.CheckFeasible(sol.X, 1e-5); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Obj > p.Objective(x0)+1e-5 {
			t.Fatalf("trial %d: obj %v worse than known feasible point %v", trial, sol.Obj, p.Objective(x0))
		}
	}
}

func TestAddRowCoalescesDuplicates(t *testing.T) {
	var p Problem
	x := p.AddVar(0, 10, 1, "x")
	p.AddRow(EQ, 6, []int32{int32(x), int32(x), int32(x)}, []float64{1, 1, 1}) // 3x = 6
	sol := p.Solve(Options{})
	if sol.Status != StatusOptimal || !approxEq(sol.X[x], 2, 1e-7) {
		t.Fatalf("status=%v x=%v", sol.Status, sol.X)
	}
}

func TestCloneIsolation(t *testing.T) {
	var p Problem
	x := p.AddVar(0, 10, 1, "x")
	p.AddRow(GE, 3, []int32{int32(x)}, []float64{1})
	q := p.Clone()
	q.SetBounds(x, 5, 10)
	solP := p.Solve(Options{})
	solQ := q.Solve(Options{})
	if !approxEq(solP.X[x], 3, 1e-7) || !approxEq(solQ.X[x], 5, 1e-7) {
		t.Fatalf("clone not isolated: p=%v q=%v", solP.X, solQ.X)
	}
}

// chainLP builds a chain-structured LP: n variables boxed in [0, 2] with
// costs 1..7 and one covering row x_j + x_{j+1} ≥ 1 per neighbouring pair.
func chainLP(n int) *Problem {
	var p Problem
	for j := 0; j < n; j++ {
		p.AddVar(0, 2, 1+float64(j%7), "v")
	}
	for j := 0; j+1 < n; j++ {
		p.AddRow(GE, 1, []int32{int32(j), int32(j + 1)}, []float64{1, 1})
	}
	return &p
}

func TestLargerSparseLP(t *testing.T) {
	// Chain-structured LP with ~600 variables exercising refactorization.
	p := chainLP(600)
	sol := p.Solve(Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status=%v iters=%d", sol.Status, sol.Iters)
	}
	if err := p.CheckFeasible(sol.X, 1e-6); err != nil {
		t.Fatal(err)
	}
	if len(sol.Duals) > 0 {
		g := p.DualBound(sol.Duals)
		if !approxEq(g, sol.Obj, 1e-4*(1+math.Abs(sol.Obj))) {
			t.Fatalf("dual bound %v != primal %v", g, sol.Obj)
		}
	}
}
