package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sparseBoxLP builds a feasible LP of the Checkmate shape at a size where
// the hypersparse kernels engage: n variables boxed in [0, 1..3], m rows of
// two to five nonzeros each, consistent with a random integral point.
func sparseBoxLP(rng *rand.Rand, n, m int) *Problem {
	p := &Problem{}
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		hi := float64(1 + rng.Intn(3))
		p.AddVar(0, hi, float64(rng.Intn(21)-10), "v")
		x0[j] = float64(rng.Intn(int(hi) + 1))
	}
	for i := 0; i < m; i++ {
		k := 2 + rng.Intn(4)
		idx := make([]int32, k)
		val := make([]float64, k)
		var lhs float64
		for t := range idx {
			idx[t] = int32(rng.Intn(n))
			val[t] = float64(rng.Intn(9) - 4)
			lhs += val[t] * x0[idx[t]]
		}
		switch rng.Intn(3) {
		case 0:
			p.AddRow(LE, lhs+float64(rng.Intn(3)), idx, val)
		case 1:
			p.AddRow(GE, lhs-float64(rng.Intn(3)), idx, val)
		default:
			p.AddRow(EQ, lhs, idx, val)
		}
	}
	return p
}

// pivotCounts is the pivot-path fingerprint of one solve.
type pivotCounts struct {
	Status                                       Status
	Iters, DualIters, BoundFlips, PricingUpdates int
}

func countsOf(sol *Solution) pivotCounts {
	return pivotCounts{sol.Status, sol.Iters, sol.DualIters, sol.BoundFlips, sol.PricingUpdates}
}

// tightened returns a copy of p with a branch-style bound change and a
// sweep-style RHS change: the largest variable's upper bound drops below its
// value in x, and every tenth row's right-hand side moves by one toward
// tighter. Both leave the old optimal basis dual-feasible, so the warm
// re-solve runs the dual simplex with steepest-edge pricing and the
// bound-flipping ratio test.
func tightened(p *Problem, x []float64) *Problem {
	q := p.Clone()
	big := 0
	for j := range x {
		if x[j] > x[big] {
			big = j
		}
	}
	lo, _ := q.Bounds(big)
	q.SetBounds(big, lo, math.Max(lo, math.Ceil(x[big])-1))
	for i := 0; i < q.NumRows(); i += 10 {
		switch q.rowSense[i] {
		case LE:
			q.rowRHS[i]--
		case GE:
			q.rowRHS[i]++
		}
	}
	return q
}

// TestPivotPathTripwire pins the exact pivot path of a few fixed LPs: the
// iteration, dual-iteration, bound-flip and pricing-update counts of a cold
// solve and of warm re-solves (default and classic rules) after a bound and
// RHS change. The values are those the dense FTRAN/BTRAN and the
// column-by-column pivot row produce. The hypersparse kernels and the
// row-wise pivot row must reproduce those kernels bit for bit, so they
// cannot change a pivot; an edit that changes the pivot path must say so
// and update these numbers on purpose.
func TestPivotPathTripwire(t *testing.T) {
	type fingerprint [3]pivotCounts // cold, warm, warm with classic rules
	problems := map[string]*Problem{"chainLP/600": chainLP(600)}
	for seed := int64(1); seed <= 6; seed++ {
		problems[fmt.Sprintf("randomBoxLP/%d", seed)] = randomBoxLP(rand.New(rand.NewSource(seed)))
	}
	for seed := int64(1); seed <= 3; seed++ {
		problems[fmt.Sprintf("sparseBoxLP/%d", seed)] = sparseBoxLP(rand.New(rand.NewSource(seed)), 400, 300)
	}
	want := map[string]fingerprint{
		"randomBoxLP/1": {{StatusOptimal, 26, 0, 0, 0}, {StatusOptimal, 3, 2, 0, 22}, {StatusOptimal, 3, 2, 0, 0}},
		"randomBoxLP/2": {{StatusOptimal, 13, 0, 0, 0}, {StatusInfeasible, 16, 4, 0, 23}, {StatusInfeasible, 16, 4, 0, 0}},
		"randomBoxLP/3": {{StatusOptimal, 19, 0, 0, 0}, {StatusOptimal, 3, 2, 0, 19}, {StatusOptimal, 3, 2, 0, 0}},
		"randomBoxLP/4": {{StatusOptimal, 12, 0, 0, 0}, {StatusInfeasible, 7, 1, 0, 0}, {StatusInfeasible, 7, 1, 0, 0}},
		"randomBoxLP/5": {{StatusOptimal, 14, 0, 0, 0}, {StatusOptimal, 2, 1, 0, 4}, {StatusOptimal, 2, 1, 0, 0}},
		"randomBoxLP/6": {{StatusOptimal, 22, 0, 0, 0}, {StatusOptimal, 1, 0, 0, 0}, {StatusOptimal, 1, 0, 0, 0}},
		"chainLP/600":   {{StatusOptimal, 815, 0, 0, 0}, {StatusOptimal, 28, 27, 0, 94}, {StatusOptimal, 28, 27, 0, 0}},
		"sparseBoxLP/1": {{StatusOptimal, 464, 0, 0, 0}, {StatusInfeasible, 316, 31, 15, 2869}, {StatusInfeasible, 464, 69, 0, 0}},
		"sparseBoxLP/2": {{StatusOptimal, 489, 0, 0, 0}, {StatusInfeasible, 309, 3, 0, 87}, {StatusInfeasible, 344, 2, 0, 0}},
		"sparseBoxLP/3": {{StatusOptimal, 420, 0, 0, 0}, {StatusOptimal, 7, 6, 0, 142}, {StatusOptimal, 8, 7, 0, 0}},
	}
	for name, p := range problems {
		cold := p.Solve(Options{})
		got := fingerprint{countsOf(cold)}
		if cold.Status == StatusOptimal {
			q := tightened(p, cold.X)
			got[1] = countsOf(q.Solve(Options{WarmStart: cold.Basis}))
			got[2] = countsOf(q.Solve(Options{WarmStart: cold.Basis, Dantzig: true}))
		}
		if got != want[name] {
			t.Errorf("%s: pivot path changed:\n got %+v\nwant %+v", name, got, want[name])
		}
	}
}
