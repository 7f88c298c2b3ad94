package lp

import (
	"math"
	"slices"
	"sort"
)

// Variable statuses for the bounded-variable simplex.
const (
	statBasic int8 = iota
	statAtLower
	statAtUpper
	statFree // nonbasic free variable parked at value 0
)

// simplex is one solve of a Problem: columns are laid out as
// [0,n) structural, [n,n+m) slack (+1 coefficient in own row),
// [n+m,n+2m) artificial (±1 coefficient in own row, sign fixed in phase 1).
type simplex struct {
	p   *Problem
	opt Options

	n, m  int // structural vars, rows
	total int // n + 2m columns

	// Column-compressed structural matrix.
	colPtr []int32
	colRow []int32
	colVal []float64

	artSign []float64 // ±1 per row, set when phase 1 begins

	lower, upper []float64 // per column, incl. slacks/artificials
	cost         []float64 // phase-2 costs per column
	pcost        []float64 // active costs (phase 1 or 2)

	stat  []int8
	basis []int32 // position -> column
	xB    []float64

	f *factor

	// Scratch.
	bufY     []float64 // BTRAN of the basic costs (dense)
	bufA     []float64 // dense rhs accumulation
	pbuf     []float64 // perturbed phase-2 costs
	w        hvec      // FTRAN of the entering column
	rho      hvec      // BTRAN of the pivot unit vector (devex / DSE row)
	tau      hvec      // FTRAN of rho (DSE weight update)
	flip     hvec      // summed columns of a bound-flip batch, then its FTRAN
	alpha    hvec      // pivot row ρᵀaⱼ, one entry per column
	inRow    []bool    // alpha: column already listed in alpha.idx
	rowIndex []int32   // 0..m-1: sliced for the row list of a slack or artificial

	// Devex reference weights (one per column); reset to 1 when the
	// reference framework is rebuilt.
	devex []float64
	// Dual steepest-edge reference weights, one per basis position
	// (approximating ‖B⁻ᵀeᵢ‖²); maintained across dual pivots by the
	// Forrest–Goldfarb update and reset to 1 on refactorization.
	dse []float64

	// Candidate scratch for the dual ratio test.
	cands []dualCand

	fillBuf []int32   // CSC build scratch (one cursor per structural column)
	seenBuf []bool    // installBasis validation scratch
	p1buf   []float64 // phase-1 cost vector scratch

	iters      int
	p1iters    int
	dualIters  int
	flips      int // bound flips performed by the long-step dual ratio test
	dseUpdates int // DSE reference-weight updates applied
	phase      int
	blandLeft  int // if > 0, use Bland's rule for this many iterations
	degenRun   int
	warm       bool // a warm-start basis was accepted and used

	duals []float64 // y at phase-2 optimality, original-row indexed
}

// dualCand is one eligible entering candidate of the dual ratio test.
type dualCand struct {
	j     int32
	alpha float64 // pivot-row coefficient aⱼᵀρ
	ratio float64 // dual breakpoint |dⱼ|/|αⱼ|
}

func newSimplex(p *Problem, opt Options) *simplex {
	n, m := p.NumVars(), p.NumRows()
	s := &simplex{n: n, m: m, total: n + 2*m}
	s.colPtr = make([]int32, n+1)
	s.lower = make([]float64, s.total)
	s.upper = make([]float64, s.total)
	s.cost = make([]float64, s.total)
	s.artSign = make([]float64, m)
	s.stat = make([]int8, s.total)
	s.basis = make([]int32, m)
	s.xB = make([]float64, m)
	s.f = newFactor(m)
	s.bufY = make([]float64, m)
	s.bufA = make([]float64, m)
	s.w = newHvec(m)
	s.rho = newHvec(m)
	s.tau = newHvec(m)
	s.flip = newHvec(m)
	s.alpha = newHvec(s.total)
	s.inRow = make([]bool, s.total)
	s.rowIndex = make([]int32, m)
	for i := range s.rowIndex {
		s.rowIndex[i] = int32(i)
	}
	s.devex = make([]float64, s.total)
	s.dse = make([]float64, m)
	s.load(p, opt)
	return s
}

// shapeMatches reports whether p can be loaded into this engine's buffers
// without reallocation: same variable and row counts. The sparsity pattern
// may differ — load rebuilds the CSC arrays (growing them if the nonzero
// count increased).
func (s *simplex) shapeMatches(p *Problem) bool {
	return s.n == p.NumVars() && s.m == p.NumRows()
}

// load (re)initializes all per-solve state from p, reusing every buffer the
// engine already owns. newSimplex calls it once; Solver calls it on reuse.
func (s *simplex) load(p *Problem, opt Options) {
	n, m := s.n, s.m
	s.p, s.opt = p, opt.withDefaults(m, n)

	// Build CSC of the structural columns from the row-wise problem data.
	counts := s.colPtr
	for j := range counts {
		counts[j] = 0
	}
	for i := range p.rowIdx {
		for _, j := range p.rowIdx[i] {
			counts[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		counts[j+1] += counts[j]
	}
	nnz := int(counts[n])
	if cap(s.colRow) < nnz {
		s.colRow = make([]int32, nnz)
		s.colVal = make([]float64, nnz)
	}
	s.colRow = s.colRow[:nnz]
	s.colVal = s.colVal[:nnz]
	if cap(s.fillBuf) < n {
		s.fillBuf = make([]int32, n)
	}
	fillBuf := s.fillBuf[:n]
	for j := range fillBuf {
		fillBuf[j] = 0
	}
	for i := range p.rowIdx {
		for k, j := range p.rowIdx[i] {
			at := s.colPtr[j] + fillBuf[j]
			s.colRow[at] = int32(i)
			s.colVal[at] = p.rowVal[i][k]
			fillBuf[j]++
		}
	}

	copy(s.lower, p.lower)
	copy(s.upper, p.upper)
	copy(s.cost, p.cost)
	for j := n; j < s.total; j++ {
		s.cost[j] = 0
	}
	for i := 0; i < m; i++ {
		sl := n + i
		switch p.rowSense[i] {
		case LE:
			s.lower[sl], s.upper[sl] = 0, Inf
		case GE:
			s.lower[sl], s.upper[sl] = math.Inf(-1), 0
		case EQ:
			s.lower[sl], s.upper[sl] = 0, 0
		}
		// Artificials start disabled (fixed at 0); phase 1 opens them.
		a := n + m + i
		s.lower[a], s.upper[a] = 0, 0
		s.artSign[i] = 0
	}
	for j := range s.stat {
		s.stat[j] = statAtLower
	}
	s.pcost = nil
	s.iters, s.p1iters, s.dualIters = 0, 0, 0
	s.flips, s.dseUpdates = 0, 0
	s.phase, s.blandLeft, s.degenRun = 0, 0, 0
	s.warm = false
	s.duals = s.duals[:0]
	s.f.reset()
}

// resetDevex rebuilds the devex reference framework.
// fixed reports whether column j is a fixed variable (equal stored bounds).
// Bounds are *assigned*, never computed, so exact equality is the intended
// test — a tolerance here would wrongly freeze near-degenerate columns.
//
//lint:floateq comparing assigned (not computed) bounds; exact equality defines "fixed"
func (s *simplex) fixed(j int) bool { return s.lower[j] == s.upper[j] }

func (s *simplex) resetDevex() {
	for j := range s.devex {
		s.devex[j] = 1
	}
}

// resetDSE rebuilds the dual steepest-edge reference framework with unit
// weights (the slack-basis exact values, and the cheap restart after a
// refactorization).
func (s *simplex) resetDSE() {
	for i := range s.dse {
		s.dse[i] = 1
	}
}

// perturbedCosts returns the phase-2 cost vector with a tiny deterministic
// pseudo-random perturbation per column (xorshift hash of the index), which
// breaks ties among the many identical reduced costs these scheduling LPs
// produce and sharply reduces degenerate pivoting.
func (s *simplex) perturbedCosts() []float64 {
	if cap(s.pbuf) < s.total {
		s.pbuf = make([]float64, s.total)
	}
	out := s.pbuf[:s.total]
	copy(out, s.cost)
	const eps = 1e-7
	for j := range out {
		h := uint64(j)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
		h ^= h >> 31
		h *= 0x94D049BB133111EB
		h ^= h >> 29
		u := float64(h>>11) / float64(1<<53) // in [0,1)
		out[j] += eps * u * (1 + math.Abs(out[j]))
	}
	return out
}

// scatterCol adds column j into dense w (original-row indexed) and returns
// the nonzero row list, which the caller must not modify.
func (s *simplex) scatterCol(j int, w []float64) []int32 {
	switch {
	case j < s.n:
		lo, hi := s.colPtr[j], s.colPtr[j+1]
		for k := lo; k < hi; k++ {
			w[s.colRow[k]] += s.colVal[k]
		}
		return s.colRow[lo:hi]
	case j < s.n+s.m:
		r := j - s.n
		w[r] += 1
		return s.rowIndex[r : r+1]
	default:
		r := j - s.n - s.m
		w[r] += s.artSign[r]
		return s.rowIndex[r : r+1]
	}
}

// colDot computes aⱼᵀy for original-row indexed y.
func (s *simplex) colDot(j int, y []float64) float64 {
	switch {
	case j < s.n:
		var v float64
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			v += s.colVal[k] * y[s.colRow[k]]
		}
		return v
	case j < s.n+s.m:
		return y[j-s.n]
	default:
		r := j - s.n - s.m
		return s.artSign[r] * y[r]
	}
}

// hvec is a dense vector with the list of its entries that may be nonzero:
// every entry outside idx compares equal to 0. last is the list's length
// after the previous solve into the vector, the density estimate for the
// next one.
type hvec struct {
	val  []float64
	idx  []int32
	last int
}

func newHvec(n int) hvec { return hvec{val: make([]float64, n)} }

// zero clears the listed entries, leaving the whole vector zero.
func (h *hvec) zero() {
	for _, i := range h.idx {
		h.val[i] = 0
	}
	h.idx = h.idx[:0]
}

// gather lists the nonzero entries of a dense result, ascending.
func (h *hvec) gather() {
	h.idx = h.idx[:0]
	for i, v := range h.val {
		if v != 0 {
			h.idx = append(h.idx, int32(i))
		}
	}
}

// hyperDensity is the density, as a fraction of m, below which FTRAN and
// BTRAN take the hypersparse kernels: both the right-hand side and the
// previous result at the same call site must be sparser. Denser solves reach
// most of L and U anyway, where the dense sweeps' tight loops win; on the
// zoo LPs 0.4 timed faster than 0.1 and than always sparse. Both kernels
// produce the same values, so this constant trades speed only.
const hyperDensity = 0.40

func (s *simplex) hyper(rhsNZ, last int) bool {
	return float64(max(rhsNZ, last)) < hyperDensity*float64(s.m)
}

// ftran replaces the right-hand side in h, whose nonzero rows rhs lists, by
// its FTRAN image B⁻¹h and lists the image's entries in h.idx.
func (s *simplex) ftran(h *hvec, rhs []int32) {
	if s.hyper(len(rhs), h.last) {
		h.idx = s.f.ftranSparse(h.val, rhs, h.idx)
	} else {
		s.f.ftran(h.val)
		h.gather()
	}
	h.last = len(h.idx)
}

// ftranCol computes the FTRAN image of column q into s.w.
func (s *simplex) ftranCol(q int) {
	s.w.zero()
	s.ftran(&s.w, s.scatterCol(q, s.w.val))
}

// pivotRow computes ρ = B⁻ᵀe_p into s.rho and the pivot row αⱼ = aⱼᵀρ into
// s.alpha, from the problem's rows: αⱼ gathers one term per nonzero ρᵢ from
// row i, rows in ascending order — the order colDot sums column j in — so it
// equals colDot(j, ρ) bit for bit, for every column, at a cost of the
// listed rows' lengths rather than of all of A.
func (s *simplex) pivotRow(p int) {
	s.btranRow(p)
	a, rho := &s.alpha, &s.rho
	for _, j := range a.idx {
		s.inRow[j] = false
	}
	a.zero()
	n, m := int32(s.n), int32(s.m)
	for _, i := range rho.idx {
		ri := rho.val[i]
		if ri == 0 {
			continue
		}
		vals := s.p.rowVal[i]
		for k, j := range s.p.rowIdx[i] {
			if !s.inRow[j] {
				s.inRow[j] = true
				a.idx = append(a.idx, j)
			}
			a.val[j] += vals[k] * ri
		}
		a.val[n+i] = ri
		a.val[n+m+i] = s.artSign[i] * ri
		a.idx = append(a.idx, n+i, n+m+i)
	}
}

// btranRow computes ρ = B⁻ᵀe_p into s.rho.
func (s *simplex) btranRow(p int) {
	rho := &s.rho
	rho.zero()
	if s.hyper(1, rho.last) {
		rho.idx = s.f.btranUnit(p, rho.val, rho.idx)
	} else {
		rho.val[p] = 1
		s.f.btran(rho.val)
		rho.gather()
	}
	rho.last = len(rho.idx)
}

// nonbasicValue returns the current value of nonbasic column j.
func (s *simplex) nonbasicValue(j int) float64 {
	switch s.stat[j] {
	case statAtLower:
		return s.lower[j]
	case statAtUpper:
		return s.upper[j]
	default:
		return 0 // free
	}
}

// initialPoint parks structural variables at the finite bound nearest zero
// (or 0 for free variables), installs the slack basis, and computes xB.
func (s *simplex) initialPoint() {
	for j := 0; j < s.n; j++ {
		lo, hi := s.lower[j], s.upper[j]
		switch {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			s.stat[j] = statFree
		case math.IsInf(lo, -1):
			s.stat[j] = statAtUpper
		case math.IsInf(hi, 1):
			s.stat[j] = statAtLower
		case s.p.startUpper[j]:
			s.stat[j] = statAtUpper
		case math.Abs(lo) <= math.Abs(hi):
			s.stat[j] = statAtLower
		default:
			s.stat[j] = statAtUpper
		}
	}
	for i := 0; i < s.m; i++ {
		s.basis[i] = int32(s.n + i) // slack basis
		s.stat[s.n+i] = statBasic
		s.stat[s.n+s.m+i] = statAtLower // artificials parked at 0
	}
	s.refactorAndRecompute()
}

// refactorAndRecompute refreshes the LU factorization and recomputes basic
// variable values from scratch (fighting numerical drift).
func (s *simplex) refactorAndRecompute() bool {
	err := s.f.refactorize(func(k int, w []float64) []int32 {
		return s.scatterCol(int(s.basis[k]), w)
	})
	if err != nil {
		return false
	}
	// rhs = b - Σ_nonbasic aⱼ xⱼ
	rhs := s.bufA
	for i := range rhs {
		rhs[i] = 0
	}
	for i := 0; i < s.m; i++ {
		rhs[i] = s.p.rowRHS[i]
	}
	for j := 0; j < s.total; j++ {
		if s.stat[j] == statBasic {
			continue
		}
		v := s.nonbasicValue(j)
		if v == 0 {
			continue
		}
		switch {
		case j < s.n:
			for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
				rhs[s.colRow[k]] -= s.colVal[k] * v
			}
		case j < s.n+s.m:
			rhs[j-s.n] -= v
		default:
			r := j - s.n - s.m
			rhs[r] -= s.artSign[r] * v
		}
	}
	s.f.ftran(rhs)
	copy(s.xB, rhs[:s.m])
	return true
}

// infeasibility returns the total bound violation of the basic variables.
func (s *simplex) infeasibility() float64 {
	var v float64
	for i := 0; i < s.m; i++ {
		j := s.basis[i]
		if d := s.lower[j] - s.xB[i]; d > 0 {
			v += d
		}
		if d := s.xB[i] - s.upper[j]; d > 0 {
			v += d
		}
	}
	return v
}

// solve optimizes the problem. With a warm-start basis it first attempts the
// reoptimization fast paths (skip phase 1 when the basis is primal-feasible;
// dual simplex when it is only dual-feasible); any warm-path breakdown falls
// back to the cold two-phase primal method, so warm starts never affect
// correctness, only pivot counts.
func (s *simplex) solve() *Solution {
	tol := s.opt.Tol
	if s.opt.WarmStart != nil && s.installBasis(s.opt.WarmStart) {
		s.warm = true
		if s.infeasibility() > tol {
			// Primal-infeasible start: the textbook dual-simplex case if the
			// basis is still dual-feasible (bound and RHS changes preserve
			// dual feasibility). Otherwise restart cold.
			handled := false
			if s.dualFeasible(tol * 10) {
				switch s.dualIterate() {
				case StatusOptimal: // primal feasibility restored
					handled = true
				case StatusInfeasible:
					// The dual ray says the primal is empty, but the warm
					// start ran under loosened tolerances and tiny pivots
					// were skipped — verdicts must never depend on the warm
					// path, so fall through to a cold solve whose phase 1
					// confirms (or refutes) infeasibility exactly.
				case StatusIterLimit:
					if s.iters >= s.opt.MaxIters || s.cancelled() {
						return s.finishSolution(&Solution{Status: StatusIterLimit})
					}
					// Stalled or numerically stuck: fall through to cold.
				}
			}
			if !handled {
				s.warm = false
			}
		}
	}
	// Phase 1 (setupPhase1) installs artificials assuming the slack basis,
	// so it must never run on a warm basis. The dual simplex stops when each
	// basic variable is within tol of its bounds; if the *summed* residual
	// still exceeds the phase-1 trigger, restart cold rather than corrupt
	// the basis.
	if s.warm && s.infeasibility() > tol {
		s.warm = false
	}
	if !s.warm {
		s.initialPoint()
	}

	if s.infeasibility() > tol {
		// Phase 1: open artificial variables to absorb the residual of every
		// infeasible row, producing a feasible start for min Σ artificials.
		if !s.setupPhase1() {
			return s.finishSolution(&Solution{Status: StatusInfeasible})
		}
		s.phase = 1
		if cap(s.p1buf) < s.total {
			s.p1buf = make([]float64, s.total)
		}
		s.pcost = s.p1buf[:s.total]
		for j := range s.pcost {
			s.pcost[j] = 0
		}
		for i := 0; i < s.m; i++ {
			s.pcost[s.n+s.m+i] = 1
		}
		st := s.iterate()
		s.p1iters = s.iters
		if st != StatusOptimal {
			if st == StatusUnbounded {
				// Phase-1 objective is bounded below by 0; an unbounded ray
				// indicates numerical breakdown. Report iteration limit.
				return s.finishSolution(&Solution{Status: StatusIterLimit})
			}
			return s.finishSolution(&Solution{Status: st})
		}
		if s.phase1Obj() > 1e-6 {
			return s.finishSolution(&Solution{Status: StatusInfeasible})
		}
		// Seal artificials at zero for phase 2.
		for i := 0; i < s.m; i++ {
			a := s.n + s.m + i
			s.lower[a], s.upper[a] = 0, 0
			if s.stat[a] != statBasic {
				s.stat[a] = statAtLower
			}
		}
	}

	// Phase 2 runs first with deterministically perturbed costs to break the
	// massive dual degeneracy of scheduling LPs (many identical cost
	// coefficients), then re-optimizes with the exact costs — typically a
	// handful of extra pivots. Warm starts skip the perturbation pass: the
	// inherited basis is already optimal for the exact costs of a nearby
	// problem, so perturbing would pivot away from it and back — unless the
	// caller asked for a polished (canonical) vertex.
	s.phase = 2
	if !s.warm || s.opt.Polish {
		s.pcost = s.perturbedCosts()
		if st := s.iterate(); st != StatusOptimal {
			if st == StatusUnbounded {
				// Unboundedness under perturbation implies unboundedness of a
				// cost vector arbitrarily close to the original; verify with
				// the exact costs below.
				s.pcost = s.cost
				if st2 := s.iterate(); st2 != StatusOptimal {
					return s.finishSolution(&Solution{Status: st2})
				}
			} else {
				return s.finishSolution(&Solution{Status: st})
			}
		}
	}
	s.pcost = s.cost
	st := s.iterate()
	sol := &Solution{Status: st}
	if st == StatusOptimal || st == StatusIterLimit {
		x := make([]float64, s.n)
		for j := 0; j < s.n; j++ {
			if s.stat[j] != statBasic {
				x[j] = s.nonbasicValue(j)
			}
		}
		for i := 0; i < s.m; i++ {
			if j := int(s.basis[i]); j < s.n {
				x[j] = s.xB[i]
			}
		}
		sol.X = x
		sol.Obj = s.p.Objective(x)
		sol.Duals = append([]float64(nil), s.duals...)
	}
	if st == StatusOptimal {
		sol.Basis = s.exportBasis()
	}
	return s.finishSolution(sol)
}

// finishSolution stamps the iteration accounting shared by every solve exit.
func (s *simplex) finishSolution(sol *Solution) *Solution {
	sol.Iters = s.iters
	sol.Phase1Iters = s.p1iters
	sol.DualIters = s.dualIters
	sol.BoundFlips = s.flips
	sol.PricingUpdates = s.dseUpdates
	sol.Warm = s.warm
	return sol
}

// cancelled reports whether the solve's cancel channel has closed.
func (s *simplex) cancelled() bool {
	if s.opt.Cancel == nil {
		return false
	}
	select {
	case <-s.opt.Cancel:
		return true
	default:
		return false
	}
}

// dualFeasible reports whether the current basis is dual-feasible for the
// exact phase-2 costs: every nonbasic reduced cost has the sign its status
// requires (≥ 0 at lower bound, ≤ 0 at upper, ≈ 0 free).
func (s *simplex) dualFeasible(tol float64) bool {
	y := s.bufY
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < s.m; i++ {
		y[i] = s.cost[s.basis[i]]
	}
	s.f.btran(y)
	for j := 0; j < s.total; j++ {
		if s.stat[j] == statBasic || s.fixed(j) {
			continue
		}
		d := s.cost[j] - s.colDot(j, y)
		switch s.stat[j] {
		case statAtLower:
			if d < -tol {
				return false
			}
		case statAtUpper:
			if d > tol {
				return false
			}
		case statFree:
			if d < -tol || d > tol {
				return false
			}
		}
	}
	return true
}

// dualIterate runs the bounded-variable dual simplex with the exact costs:
// starting from a dual-feasible basis it drives out primal infeasibilities
// one leaving row at a time, preserving dual feasibility via the dual ratio
// test. Returns StatusOptimal once all basic variables are within bounds
// (primal + dual feasible = optimal up to a final primal confirmation pass),
// StatusInfeasible when a dual ray proves the primal empty, or
// StatusIterLimit on iteration exhaustion, cancellation, or a stall — the
// caller treats a stall as "fall back to a cold solve".
//
// Two refinements over the textbook method, both off under Options.Dantzig:
//
//   - Leaving-row pricing uses dual steepest-edge (Forrest–Goldfarb):
//     maximize infeasᵢ²/βᵢ where βᵢ approximates ‖B⁻ᵀeᵢ‖². Weights are
//     maintained across pivots by the exact FG update (one extra FTRAN per
//     pivot) and reset to 1 on refactorization.
//   - The ratio test is the long-step bound-flipping test: breakpoints are
//     crossed in ratio order, flipping each passed boxed variable to its
//     opposite bound (dual feasibility is restored by the flip), until the
//     remaining infeasibility would be exhausted. One pivot thus does the
//     work of many on the 0/1-box Checkmate LPs where nearly every column
//     is boxed.
func (s *simplex) dualIterate() Status {
	tol := s.opt.Tol
	const pivTol = 1e-9
	classic := s.opt.Dantzig
	if !classic {
		s.resetDSE()
	}
	// Stall guard: dual-degenerate pivots (entering reduced cost ~0) make no
	// dual-objective progress; long runs risk cycling, and a cold solve is
	// always available, so bail out after a bounded run.
	stall := 0
	maxStall := 200 + (s.m+s.n)/4
	for {
		if s.iters >= s.opt.MaxIters {
			return StatusIterLimit
		}
		if s.opt.Cancel != nil && s.iters&63 == 0 && s.cancelled() {
			return StatusIterLimit
		}
		if s.f.numEtas >= s.opt.RefactorEvery {
			if !s.refactorAndRecompute() {
				return StatusIterLimit
			}
			if !classic {
				s.resetDSE()
			}
		}

		// Leaving row: the most primally infeasible basic variable, measured
		// through the steepest-edge reference weights unless classic rules
		// were requested.
		leave, best := -1, 0.0
		var leaveAt int8
		for i := 0; i < s.m; i++ {
			j := s.basis[i]
			var viol float64
			var at int8
			if d := s.lower[j] - s.xB[i]; d > tol {
				viol, at = d, statAtLower
			} else if d := s.xB[i] - s.upper[j]; d > tol {
				viol, at = d, statAtUpper
			} else {
				continue
			}
			score := viol
			if !classic {
				score = viol * viol / s.dse[i]
			}
			if score > best {
				leave, best, leaveAt = i, score, at
			}
		}
		if leave < 0 {
			return StatusOptimal // primal feasible
		}
		s.iters++
		s.dualIters++

		// Pivot row: ρ = B⁻ᵀ e_leave, α_j = aⱼᵀρ.
		s.pivotRow(leave)

		// Reduced costs need y = B⁻ᵀ c_B as well.
		y := s.bufY
		for i := range y {
			y[i] = 0
		}
		for i := 0; i < s.m; i++ {
			y[i] = s.cost[s.basis[i]]
		}
		s.f.btran(y)

		// Basic variable leaves at the violated bound. Moving it toward that
		// bound requires the entering nonbasic to move in a direction that
		// fixes the violation: xB[leave] changes at rate −α_j per unit of
		// x_j's move, so eligibility depends on the sign of α_j and on which
		// directions the entering variable's status allows. Collect every
		// eligible candidate with its dual breakpoint.
		needInc := leaveAt == statAtLower // basic below lower: must increase
		cands := s.cands[:0]
		for _, j32 := range s.alpha.idx {
			j := int(j32)
			st := s.stat[j]
			if st == statBasic || s.fixed(j) {
				continue
			}
			alpha := s.alpha.val[j]
			if math.Abs(alpha) < pivTol {
				continue
			}
			switch st {
			case statAtLower:
				if needInc == (alpha > 0) {
					continue
				}
			case statAtUpper:
				if needInc == (alpha < 0) {
					continue
				}
			case statFree:
				// Either direction available; always eligible, and with a
				// near-zero reduced cost a free variable wins the ratio test.
			}
			d := s.cost[j] - s.colDot(j, y)
			cands = append(cands, dualCand{j: int32(j), alpha: alpha, ratio: math.Abs(d) / math.Abs(alpha)})
		}
		s.cands = cands
		if len(cands) == 0 {
			// No entering candidate: the dual is unbounded along this row,
			// so the primal is infeasible.
			return StatusInfeasible
		}

		// Signed violation of the leaving basic variable.
		jb := s.basis[leave]
		var e float64
		if leaveAt == statAtLower {
			e = s.xB[leave] - s.lower[jb]
		} else {
			e = s.xB[leave] - s.upper[jb]
		}

		q := -1
		var qAlpha, qRatio float64
		if classic {
			// Single-breakpoint test: smallest ratio, larger |α| on near ties,
			// first column on exact ties — so candidates go in column order.
			slices.SortFunc(cands, func(a, b dualCand) int { return int(a.j - b.j) })
			bestRatio, bestAbs := math.Inf(1), 0.0
			for _, c := range cands {
				if c.ratio < bestRatio-1e-10 || (c.ratio < bestRatio+1e-10 && math.Abs(c.alpha) > bestAbs) {
					q, qAlpha, bestRatio, bestAbs = int(c.j), c.alpha, c.ratio, math.Abs(c.alpha)
				}
			}
			qRatio = bestRatio
		} else {
			var flipped bool
			q, qAlpha, qRatio, flipped = s.boundFlipRatioTest(cands, leave, math.Abs(e))
			if flipped {
				// Recompute the violation: the flips moved every basic value,
				// including the leaving row's.
				if leaveAt == statAtLower {
					e = s.xB[leave] - s.lower[jb]
				} else {
					e = s.xB[leave] - s.upper[jb]
				}
				// The flips alone can (numerically) restore this row to its
				// bounds; the basis is unchanged, so simply re-price.
				if math.Abs(e) <= tol {
					continue
				}
			}
		}
		if qRatio <= 1e-12 {
			stall++
			if stall > maxStall {
				return StatusIterLimit
			}
		} else {
			stall = 0
		}

		// Step: the entering variable moves until xB[leave] reaches its bound.
		// The sign of delta matches the allowed direction by the eligibility
		// test above.
		delta := e / qAlpha

		// FTRAN the entering column to update the basic values.
		s.ftranCol(q)
		w := s.w.val

		// Forrest–Goldfarb weight update, before the eta is pushed (the τ
		// FTRAN must use the pre-pivot basis): β_r ← β_r/α_r²,
		// β_i ← max(β_i − 2(w_i/α_r)τ_i + (w_i/α_r)²β_r, floor) with
		// τ = B⁻¹ρ.
		if !classic {
			s.tau.zero()
			for _, i := range s.rho.idx {
				s.tau.val[i] = s.rho.val[i]
			}
			s.ftran(&s.tau, s.rho.idx)
			tau := s.tau.val
			ar := w[leave]
			if math.Abs(ar) > pivTol {
				br := s.dse[leave]
				if br < 1e-10 {
					br = 1e-10
				}
				for _, i32 := range s.w.idx {
					i := int(i32)
					if i == leave || w[i] == 0 {
						continue
					}
					k := w[i] / ar
					cand := s.dse[i] - 2*k*tau[i] + k*k*br
					if low := 1e-4 * k * k * br; cand < low {
						cand = low
					}
					if cand < 1e-10 {
						cand = 1e-10
					}
					s.dse[i] = cand
					s.dseUpdates++
				}
				nr := br / (ar * ar)
				if nr < 1e-10 {
					nr = 1e-10
				}
				s.dse[leave] = nr
				s.dseUpdates++
			}
		}

		enterVal := s.nonbasicValue(q) + delta
		for _, i := range s.w.idx {
			if w[i] != 0 {
				s.xB[i] -= w[i] * delta
			}
		}
		s.stat[jb] = leaveAt
		s.basis[leave] = int32(q)
		s.stat[q] = statBasic
		s.xB[leave] = enterVal
		if !s.f.pushEta(leave, w, s.w.idx) {
			if !s.refactorAndRecompute() {
				return StatusIterLimit
			}
		}
	}
}

// boundFlipRatioTest is the long-step dual ratio test. Candidates are walked
// in breakpoint order; each passed boxed candidate is flipped to its
// opposite bound (consuming |α|·(u−l) of the remaining infeasibility), and
// the candidate at which the infeasibility would be exhausted — or that has
// no opposite bound to flip to — enters the basis. Flips are applied to the
// basic values immediately (one batched FTRAN); the caller re-reads xB.
// Returns the entering column, its α, its breakpoint ratio, and whether any
// flips were applied.
func (s *simplex) boundFlipRatioTest(cands []dualCand, leave int, remaining float64) (q int, qAlpha, qRatio float64, flipped bool) {
	sort.Sort(byRatio(cands))
	stop := len(cands) - 1
	for k := 0; k < len(cands); k++ {
		c := cands[k]
		j := int(c.j)
		rng := s.upper[j] - s.lower[j] // +Inf for unboxed and free columns
		gain := math.Abs(c.alpha) * rng
		if math.IsInf(gain, 1) || remaining-gain <= 1e-9 {
			stop = k
			break
		}
		remaining -= gain
	}
	// The entering column is the best-pivot candidate among those sharing
	// the stopping breakpoint.
	choose := stop
	for k := stop + 1; k < len(cands); k++ {
		if cands[k].ratio > cands[stop].ratio+1e-10 {
			break
		}
		if math.Abs(cands[k].alpha) > math.Abs(cands[choose].alpha) {
			choose = k
		}
	}
	// Flip only the candidates whose breakpoints the dual step strictly
	// passes. Candidates tied with the entering ratio are dual-degenerate
	// at the new prices: flipping them buys no dual progress but perturbs
	// every basic value, which on these massively degenerate scheduling LPs
	// (most reduced costs identical) causes far more pivots than it saves.
	theta := cands[choose].ratio
	nflip := 0
	for k := 0; k < stop && cands[k].ratio < theta-1e-10; k++ {
		nflip++
	}
	if nflip > 0 {
		acc := &s.flip
		acc.zero()
		for k := 0; k < nflip; k++ {
			c := cands[k]
			j := int(c.j)
			var dv float64
			if s.stat[j] == statAtLower {
				dv = s.upper[j] - s.lower[j]
				s.stat[j] = statAtUpper
			} else {
				dv = s.lower[j] - s.upper[j]
				s.stat[j] = statAtLower
			}
			acc.idx = append(acc.idx, s.addColScaled(j, dv, acc.val)...)
		}
		s.ftran(acc, acc.idx)
		for _, i := range acc.idx {
			if v := acc.val[i]; v != 0 {
				s.xB[i] -= v
			}
		}
		s.flips += nflip
		flipped = true
	}
	c := cands[choose]
	return int(c.j), c.alpha, c.ratio, flipped
}

// byRatio sorts dual ratio-test candidates by breakpoint, column index as a
// deterministic tie-break.
type byRatio []dualCand

func (b byRatio) Len() int      { return len(b) }
func (b byRatio) Swap(i, j int) { b[i], b[j] = b[j], b[i] }
func (b byRatio) Less(i, j int) bool {
	//lint:floateq exact tie-break: equal ratios fall through to the deterministic column-index key
	if b[i].ratio != b[j].ratio {
		return b[i].ratio < b[j].ratio
	}
	return b[i].j < b[j].j
}

// addColScaled accumulates v·aⱼ into dense w (original-row indexed) and
// returns aⱼ's row list, as scatterCol does.
func (s *simplex) addColScaled(j int, v float64, w []float64) []int32 {
	switch {
	case j < s.n:
		lo, hi := s.colPtr[j], s.colPtr[j+1]
		for k := lo; k < hi; k++ {
			w[s.colRow[k]] += s.colVal[k] * v
		}
		return s.colRow[lo:hi]
	case j < s.n+s.m:
		r := j - s.n
		w[r] += v
		return s.rowIndex[r : r+1]
	default:
		r := j - s.n - s.m
		w[r] += s.artSign[r] * v
		return s.rowIndex[r : r+1]
	}
}

// setupPhase1 installs one artificial per infeasible row so the slack basis
// becomes feasible for the phase-1 problem. Rows already feasible keep their
// artificial fixed at 0.
func (s *simplex) setupPhase1() bool {
	// The basis is currently all slacks, so xB[i] is the slack value of the
	// row at position rowPos... with slack basis pivoting is 1:1; recompute
	// per row residual directly for clarity.
	resid := s.bufA
	for i := 0; i < s.m; i++ {
		resid[i] = s.p.rowRHS[i]
	}
	for j := 0; j < s.n; j++ {
		v := s.nonbasicValue(j)
		if s.stat[j] == statBasic || v == 0 {
			continue
		}
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			resid[s.colRow[k]] -= s.colVal[k] * v
		}
	}
	for i := 0; i < s.m; i++ {
		sl := s.n + i
		a := s.n + s.m + i
		// Clamp the slack into its bounds; the artificial absorbs the rest.
		v := resid[i]
		clamped := math.Min(math.Max(v, s.lower[sl]), s.upper[sl])
		excess := v - clamped
		if math.Abs(excess) <= s.opt.Tol {
			// Row feasible with slack basic.
			continue
		}
		s.artSign[i] = 1
		if excess < 0 {
			s.artSign[i] = -1
		}
		s.lower[a], s.upper[a] = 0, Inf
		// Artificial enters the basis; slack becomes nonbasic at the bound it
		// was clamped to.
		s.basis[i] = int32(a)
		s.stat[a] = statBasic
		//lint:floateq clamped was assigned one of the two bounds; exact match identifies which
		if clamped == s.lower[sl] {
			s.stat[sl] = statAtLower
		} else {
			s.stat[sl] = statAtUpper
		}
	}
	return s.refactorAndRecompute()
}

func (s *simplex) phase1Obj() float64 {
	var v float64
	for i := 0; i < s.m; i++ {
		if j := int(s.basis[i]); j >= s.n+s.m {
			v += s.xB[i]
		}
	}
	// Nonbasic artificials sit at 0.
	return v
}

// iterate runs primal simplex iterations until optimality for the active
// cost vector. Pricing uses the devex rule (reduced cost squared over a
// reference weight), which substantially reduces degenerate pivoting on the
// rematerialization LPs compared to Dantzig's rule; Bland's rule takes over
// on long degenerate runs to guarantee termination.
func (s *simplex) iterate() Status {
	tol := s.opt.Tol
	s.resetDevex()
	for {
		if s.iters >= s.opt.MaxIters {
			return StatusIterLimit
		}
		if s.opt.Cancel != nil && s.iters&63 == 0 {
			select {
			case <-s.opt.Cancel:
				return StatusIterLimit
			default:
			}
		}
		s.iters++
		if s.f.numEtas >= s.opt.RefactorEvery {
			if !s.refactorAndRecompute() {
				return StatusIterLimit
			}
		}

		// BTRAN: y = (c_B)ᵀ B⁻¹.
		y := s.bufY
		for i := range y {
			y[i] = 0
		}
		for i := 0; i < s.m; i++ {
			y[i] = s.pcost[s.basis[i]]
		}
		s.f.btran(y)

		// Pricing: devex — maximize d² / γ among eligible columns.
		q, dir, bestScore := -1, 0.0, 0.0
		bland := s.blandLeft > 0
		for j := 0; j < s.total; j++ {
			st := s.stat[j]
			if st == statBasic || s.fixed(j) {
				continue
			}
			d := s.pcost[j] - s.colDot(j, y)
			var cdir float64
			switch st {
			case statAtLower:
				if d < -tol {
					cdir = 1
				}
			case statAtUpper:
				if d > tol {
					cdir = -1
				}
			case statFree:
				if d < -tol {
					cdir = 1
				} else if d > tol {
					cdir = -1
				}
			}
			if cdir == 0 {
				continue
			}
			if bland {
				q, dir = j, cdir
				break
			}
			cand := d * d / s.devex[j]
			if s.opt.Dantzig {
				cand = d * d
			}
			if cand > bestScore {
				q, dir, bestScore = j, cdir, cand
			}
		}
		if q < 0 {
			if s.phase == 2 {
				s.duals = append(s.duals[:0], y[:s.m]...)
			}
			return StatusOptimal
		}

		// FTRAN: w = B⁻¹ a_q.
		s.ftranCol(q)
		w := s.w.val

		// Ratio test. Entering moves by t ≥ 0 in direction dir; basic i
		// changes at rate -dir·w[i]. tBasic is the largest step before some
		// basic variable hits a bound; flipDist is the entering variable's
		// own bound-to-bound range.
		flipDist := math.Inf(1)
		if !math.IsInf(s.upper[q], 1) && !math.IsInf(s.lower[q], -1) {
			flipDist = s.upper[q] - s.lower[q]
		}
		tBasic := math.Inf(1)
		leave, leaveAbs := -1, 0.0
		var leaveAt int8
		const pivTol = 1e-9
		for _, i32 := range s.w.idx {
			i := int(i32)
			if math.Abs(w[i]) < pivTol {
				continue
			}
			rate := -dir * w[i]
			jb := s.basis[i]
			var t float64
			var hits int8
			if rate < 0 { // basic decreases toward lower bound
				if math.IsInf(s.lower[jb], -1) {
					continue
				}
				t = (s.lower[jb] - s.xB[i]) / rate
				hits = statAtLower
			} else { // basic increases toward upper bound
				if math.IsInf(s.upper[jb], 1) {
					continue
				}
				t = (s.upper[jb] - s.xB[i]) / rate
				hits = statAtUpper
			}
			if t < 0 {
				t = 0 // degenerate: already at (or slightly past) the bound
			}
			// Prefer strictly smaller ratios; on near ties keep the larger
			// pivot magnitude for numerical stability.
			if t < tBasic-1e-10 {
				tBasic = t
				leave, leaveAbs, leaveAt = i, math.Abs(w[i]), hits
			} else if t < tBasic+1e-10 && math.Abs(w[i]) > leaveAbs {
				leave, leaveAbs, leaveAt = i, math.Abs(w[i]), hits
			}
		}
		if math.IsInf(tBasic, 1) && math.IsInf(flipDist, 1) {
			return StatusUnbounded
		}
		step := math.Min(tBasic, flipDist)

		// Track degeneracy; switch to Bland's rule on long degenerate runs
		// to guarantee termination.
		if step <= 1e-12 {
			s.degenRun++
			if s.degenRun > 200 && s.blandLeft == 0 {
				s.blandLeft = 5000
			}
		} else {
			s.degenRun = 0
		}
		if s.blandLeft > 0 {
			s.blandLeft--
		}

		if flipDist <= tBasic {
			// Bound flip: entering traverses its whole range, basis intact.
			for _, i := range s.w.idx {
				if w[i] != 0 {
					s.xB[i] -= dir * w[i] * flipDist
				}
			}
			if s.stat[q] == statAtLower {
				s.stat[q] = statAtUpper
			} else {
				s.stat[q] = statAtLower
			}
			continue
		}
		// Devex weight update (Forrest-Goldfarb) using the pivot row
		// ρᵀA with ρ = B⁻ᵀ e_p, before the basis changes.
		if !bland && !s.opt.Dantzig {
			s.pivotRow(leave)
			a := w[leave]
			gq := s.devex[q]
			maxW := 1.0
			for _, j32 := range s.alpha.idx {
				j := int(j32)
				if s.stat[j] == statBasic || s.fixed(j) || j == q {
					continue
				}
				alpha := s.alpha.val[j]
				if alpha == 0 {
					continue
				}
				cand := (alpha / a) * (alpha / a) * gq
				if cand > s.devex[j] {
					s.devex[j] = cand
				}
				if s.devex[j] > maxW {
					maxW = s.devex[j]
				}
			}
			gl := gq / (a * a)
			if gl < 1 {
				gl = 1
			}
			s.devex[s.basis[leave]] = gl
			if maxW > 1e8 {
				s.resetDevex()
			}
		}

		// Pivot: q enters at position leave.
		enterVal := s.nonbasicValue(q) + dir*step
		for _, i := range s.w.idx {
			if w[i] != 0 {
				s.xB[i] -= dir * w[i] * step
			}
		}
		jOut := s.basis[leave]
		s.stat[jOut] = leaveAt
		s.basis[leave] = int32(q)
		s.stat[q] = statBasic
		s.xB[leave] = enterVal
		if !s.f.pushEta(leave, w, s.w.idx) {
			if !s.refactorAndRecompute() {
				return StatusIterLimit
			}
		}
	}
}
