package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/milp"
)

// Instance is one rematerialization optimization problem: a data-flow graph
// (typically the joint forward+backward training graph), a memory budget in
// bytes, and the constant memory overhead of inputs, parameters, and
// gradient space (M_input + 2·M_param in eq. (2)).
type Instance struct {
	G        *graph.Graph
	Budget   int64
	Overhead int64
}

// Formulation holds the constructed MILP and the variable index maps needed
// to read solutions back out. Variables follow the paper exactly:
//
//	R_{t,i} ∈ {0,1}: operation i computed in stage t          (Section 4.2)
//	S_{t,i} ∈ {0,1}: value i retained from stage t-1 into t   (Section 4.2)
//	FREE_{t,i,k} ∈ [0,1] for (i,k) ∈ E: i freed in t after k  (Section 4.4)
//
// The paper's memory accounting variables U_{t,k} (Section 4.4) are
// eliminated by exact substitution; see the budget constraints in Build.
//
// With FrontierAdvancing (Section 4.6) R and S are restricted to lower
// triangular with R_{t,t} = 1; without it the full matrices are used with
// constraints (1d)–(1e) instead (the unpartitioned form measured in
// Appendix A).
//
// Diagonal FREE_{t,k,k} variables are eliminated per Section 4.8.
type Formulation struct {
	Inst              Instance
	FrontierAdvancing bool
	// CostCap mirrors BuildOptions.CostCap (0 = none).
	CostCap float64

	Prob *milp.Problem

	// Variable columns; -1 where the variable was eliminated or fixed.
	rIdx    [][]int32 // [t][i]
	sIdx    [][]int32 // [t][i]
	freeIdx [][]int32 // [t][edge]

	edges [][2]graph.NodeID

	costScale float64 // objective scaling (numerics only)
	memScale  float64 // memory scaling (numerics only)
}

// BuildOptions control formulation construction.
type BuildOptions struct {
	// FrontierAdvancing selects the partitioned form (8a)-(8c); it is the
	// paper's default and dramatically tightens the LP relaxation
	// (Appendix A). Disable only for the integrality-gap experiment.
	FrontierAdvancing bool
	// CostCap, when positive, adds the total-cost constraint of eq. (10):
	// Σ_t Σ_i C_i R_{t,i} ≤ CostCap (in the graph's cost units). The paper
	// uses cap = 2·C_fwd + C_bwd for the maximum-batch-size experiment
	// (Section 6.4): at most one extra forward pass.
	CostCap float64
	// AggregatedFree reproduces the paper's exact big-κ linearization (7c)
	// instead of this implementation's per-hazard disaggregation. The
	// integral feasible set is identical; the LP relaxation is looser and
	// FREE must then be branched on as a binary. Used by the ablation
	// benchmarks.
	AggregatedFree bool
}

// Build constructs the complete MILP of problem (9) (or problem (8) when
// FrontierAdvancing is false) for the instance.
func Build(inst Instance, opt BuildOptions) (*Formulation, error) {
	g := inst.G
	if !g.IsTopoSorted() {
		return nil, fmt.Errorf("core: graph IDs must be topologically sorted")
	}
	if err := g.Validate(false); err != nil {
		return nil, err
	}
	n := g.Len()
	if n == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	f := &Formulation{
		Inst:              inst,
		FrontierAdvancing: opt.FrontierAdvancing,
		CostCap:           opt.CostCap,
		edges:             g.Edges(),
	}

	// Scaling for numerical conditioning: costs normalized by the largest
	// node cost, memory by the largest node size.
	f.costScale = 1.0
	for i := 0; i < n; i++ {
		if c := g.Node(graph.NodeID(i)).Cost; c > f.costScale {
			f.costScale = c
		}
	}
	f.memScale = 1.0
	for i := 0; i < n; i++ {
		if m := float64(g.Node(graph.NodeID(i)).Mem); m > f.memScale {
			f.memScale = m
		}
	}
	budget := float64(inst.Budget) / f.memScale
	overhead := float64(inst.Overhead) / f.memScale
	mem := func(i int) float64 { return float64(g.Node(graph.NodeID(i)).Mem) / f.memScale }
	cost := func(i int) float64 { return g.Node(graph.NodeID(i)).Cost / f.costScale }

	p := &lp.Problem{}
	var integer []bool
	addBin := func(name string, fixed int, c float64) int32 {
		lo, hi := 0.0, 1.0
		switch fixed {
		case 0:
			hi = 0
		case 1:
			lo = 1
		}
		j := p.AddVar(lo, hi, c, name)
		integer = append(integer, true)
		return int32(j)
	}
	addCont := func(name string, lo, hi float64) int32 {
		j := p.AddVar(lo, hi, 0, name)
		integer = append(integer, false)
		return int32(j)
	}

	f.rIdx = int32Mat(n, n)
	f.sIdx = int32Mat(n, n)
	f.freeIdx = int32Mat(n, len(f.edges))

	fa := opt.FrontierAdvancing
	exists := func(t, i int) bool { return !fa || i <= t }

	// ----- Variables -----
	for t := 0; t < n; t++ {
		for i := 0; i < n; i++ {
			if !exists(t, i) {
				continue
			}
			fixed := -1
			if fa && i == t {
				fixed = 1 // (8a) frontier: R_{t,t} = 1
			}
			f.rIdx[t][i] = addBin(fmt.Sprintf("R[%d,%d]", t, i), fixed, cost(i))
		}
	}
	for t := 0; t < n; t++ {
		for i := 0; i < n; i++ {
			if fa && i >= t { // (8b): strictly lower triangular
				continue
			}
			fixed := -1
			if t == 0 {
				fixed = 0 // (1d): nothing in memory initially
			}
			f.sIdx[t][i] = addBin(fmt.Sprintf("S[%d,%d]", t, i), fixed, 0)
		}
	}
	for t := 0; t < n; t++ {
		for ei, e := range f.edges {
			if !exists(t, int(e[1])) {
				continue
			}
			if opt.AggregatedFree {
				// Paper-exact (7a): FREE is binary and must be branched on.
				f.freeIdx[t][ei] = addBin(fmt.Sprintf("FREE[%d,%d,%d]", t, e[0], e[1]), -1, 0)
			} else {
				// FREE is declared continuous: the disaggregated hazard
				// constraints below force it to 0/1 whenever R and S are
				// integral, so branching on it is never needed.
				f.freeIdx[t][ei] = addCont(fmt.Sprintf("FREE[%d,%d,%d]", t, e[0], e[1]), 0, 1)
			}
		}
	}

	rVar := func(t, i int) int32 { return f.rIdx[t][i] }
	sVar := func(t, i int) int32 {
		if fa && i >= t {
			return -1
		}
		if t == 0 {
			return f.sIdx[0][i] // exists, fixed to 0
		}
		return f.sIdx[t][i]
	}

	// ----- Constraints -----
	// (1b): R_{t,j} ≤ R_{t,i} + S_{t,i} for every edge (i,j).
	for t := 0; t < n; t++ {
		for _, e := range f.edges {
			i, j := int(e[0]), int(e[1])
			if !exists(t, j) {
				continue
			}
			idx := []int32{rVar(t, j), rVar(t, i)}
			val := []float64{1, -1}
			if sv := sVar(t, i); sv >= 0 {
				idx = append(idx, sv)
				val = append(val, -1)
			}
			p.AddRow(lp.LE, 0, idx, val)
		}
	}
	// (1c): S_{t,i} ≤ R_{t-1,i} + S_{t-1,i} for t ≥ 1.
	for t := 1; t < n; t++ {
		for i := 0; i < n; i++ {
			sv := sVar(t, i)
			if sv < 0 {
				continue
			}
			if fa && i == t-1 {
				continue // implied: R_{t-1,t-1} = 1
			}
			if !exists(t-1, i) {
				// Unreachable under frontier advancing (i < t ⇒ i ≤ t-1);
				// defensive for the unpartitioned form where all exist.
				continue
			}
			idx := []int32{sv, rVar(t-1, i)}
			val := []float64{1, -1}
			if pv := sVar(t-1, i); pv >= 0 {
				idx = append(idx, pv)
				val = append(val, -1)
			}
			p.AddRow(lp.LE, 0, idx, val)
		}
	}
	// (1e) covering constraint for the unpartitioned form: Σ_t R_{t,n-1} ≥ 1.
	if !fa {
		idx := make([]int32, n)
		val := make([]float64, n)
		for t := 0; t < n; t++ {
			idx[t] = rVar(t, n-1)
			val[t] = 1
		}
		p.AddRow(lp.GE, 1, idx, val)
	}

	// Memory accounting (2)-(3). The paper introduces continuous variables
	// U_{t,k} defined by equality recurrences and bounds them by the budget.
	// Each U is uniquely determined by (R, S, FREE), so we eliminate the
	// variables by substitution (an exact presolve step) and post the
	// telescoped budget inequality directly:
	//
	//	overhead + Σ_i M_i S_{t,i} + Σ_{j≤k} M_j R_{t,j}
	//	         − Σ_{j<k} Σ_{i∈DEPS[j]} M_i FREE_{t,i,j} ≤ M_budget.
	//
	// This removes O(n²) equality rows whose artificial variables dominated
	// phase-1 simplex time, leaving a pure-inequality system whose slack
	// basis is almost feasible. ExtractSched recomputes the U profile from
	// the schedule when needed.
	edgesInto := make([][]int, n)
	for ei, e := range f.edges {
		edgesInto[e[1]] = append(edgesInto[e[1]], ei)
	}
	for t := 0; t < n; t++ {
		// Accumulate the running expression for U_{t,k} as k advances.
		var idx []int32
		var val []float64
		for i := 0; i < n; i++ {
			if sv := sVar(t, i); sv >= 0 {
				idx = append(idx, sv)
				val = append(val, mem(i))
			}
		}
		for k := 0; k < n; k++ {
			if !exists(t, k) {
				continue
			}
			idx = append(idx, rVar(t, k))
			val = append(val, mem(k))
			p.AddRow(lp.LE, budget-overhead, idx, val)
			// After evaluating k, its dependencies may be freed, lowering
			// all subsequent U values in the stage.
			for _, ei := range edgesInto[k] {
				fv := f.freeIdx[t][ei]
				if fv < 0 {
					continue
				}
				idx = append(idx, fv)
				val = append(val, -mem(int(f.edges[ei][0])))
			}
		}
	}

	// FREE linearization via num_hazards (Section 4.5):
	//	num_hazards(t,i,k) = (1 − R_{t,k}) + S_{t+1,i} + Σ_{j∈USERS[i], j>k} R_{t,j}
	//	(7b): 1 − FREE ≤ num_hazards
	//	(7c): κ(1 − FREE) ≥ num_hazards
	//
	// Deviation from the paper (a strict strengthening): the aggregated
	// big-κ constraint (7c) is replaced by its standard disaggregation —
	// one constraint per hazard term:
	//
	//	FREE ≤ R_{t,k};  FREE ≤ 1 − S_{t+1,i};  FREE ≤ 1 − R_{t,j} ∀j.
	//
	// These dominate (7c) (summing them recovers it), so the feasible
	// integral set is unchanged, while the LP relaxation becomes much
	// tighter. Crucially they make FREE *determined* by any integral (R,S):
	// with a hazard present some upper bound forces FREE = 0, and with none
	// (7b) forces FREE = 1. FREE can therefore be declared continuous and
	// branch-and-bound only branches on R and S, which both shrinks the
	// search tree and prevents the fractional-FREE "partial deallocation"
	// cheat the aggregated form permits.
	for t := 0; t < n; t++ {
		for ei, e := range f.edges {
			fv := f.freeIdx[t][ei]
			if fv < 0 {
				continue
			}
			i, k := int(e[0]), int(e[1])
			// (7b): 1 − FREE ≤ (1 − R_{t,k}) + S_{t+1,i} + Σ R_{t,j}
			// ⇔ −FREE + R_{t,k} − S_{t+1,i} − Σ R_{t,j} ≤ 0.
			idx := []int32{fv, rVar(t, k)}
			val := []float64{-1, 1}
			if t+1 < n {
				if sv := sVar(t+1, i); sv >= 0 {
					idx = append(idx, sv)
					val = append(val, -1)
				}
			}
			for _, j := range g.Users(graph.NodeID(i)) {
				if int(j) > k && exists(t, int(j)) {
					idx = append(idx, rVar(t, int(j)))
					val = append(val, -1)
				}
			}
			p.AddRow(lp.LE, 0, idx, val)

			if opt.AggregatedFree {
				// Paper-exact (7c): κ(1 − FREE) ≥ num_hazards with
				// κ = 2 + |{j ∈ USERS[i] : j > k}|. Rearranged:
				// κ·FREE − R_{t,k} + S_{t+1,i} + Σ R_{t,j} ≤ κ − 1.
				kappa := 2.0
				aIdx := []int32{fv, rVar(t, k)}
				aVal := []float64{0, -1} // kappa filled in below
				if t+1 < n {
					if sv := sVar(t+1, i); sv >= 0 {
						aIdx = append(aIdx, sv)
						aVal = append(aVal, 1)
					}
				}
				for _, j := range g.Users(graph.NodeID(i)) {
					if int(j) > k && exists(t, int(j)) {
						aIdx = append(aIdx, rVar(t, int(j)))
						aVal = append(aVal, 1)
						kappa++
					}
				}
				aVal[0] = kappa
				p.AddRow(lp.LE, kappa-1, aIdx, aVal)
				continue
			}

			// Disaggregated upper bounds replacing (7c):
			p.AddRow(lp.LE, 0, []int32{fv, rVar(t, k)}, []float64{1, -1}) // FREE ≤ R_{t,k}
			if t+1 < n {
				if sv := sVar(t+1, i); sv >= 0 {
					p.AddRow(lp.LE, 1, []int32{fv, sv}, []float64{1, 1}) // FREE ≤ 1 − S_{t+1,i}
				}
			}
			for _, j := range g.Users(graph.NodeID(i)) {
				if int(j) > k && exists(t, int(j)) {
					p.AddRow(lp.LE, 1, []int32{fv, rVar(t, int(j))}, []float64{1, 1}) // FREE ≤ 1 − R_{t,j}
				}
			}
		}
	}

	// Optional total-cost cap (eq. (10)).
	if opt.CostCap > 0 {
		var idx []int32
		var val []float64
		for t := 0; t < n; t++ {
			for i := 0; i < n; i++ {
				if rv := f.rIdx[t][i]; rv >= 0 {
					idx = append(idx, rv)
					val = append(val, cost(i))
				}
			}
		}
		p.AddRow(lp.LE, opt.CostCap/f.costScale, idx, val)
	}

	f.Prob = &milp.Problem{LP: p, Integer: integer}
	return f, nil
}

func int32Mat(r, c int) [][]int32 {
	backing := make([]int32, r*c)
	for i := range backing {
		backing[i] = -1
	}
	m := make([][]int32, r)
	for i := range m {
		m[i] = backing[i*c : (i+1)*c]
	}
	return m
}

// ExtractSched converts a MILP solution vector into a Sched, rounding
// binaries at 0.5.
func (f *Formulation) ExtractSched(x []float64) *Sched {
	n := f.Inst.G.Len()
	s := NewSched(n, len(f.edges))
	for t := 0; t < n; t++ {
		for i := 0; i < n; i++ {
			if j := f.rIdx[t][i]; j >= 0 {
				s.R[t][i] = x[j] > 0.5
			}
			if j := f.sIdx[t][i]; j >= 0 {
				s.S[t][i] = x[j] > 0.5
			}
		}
	}
	// Recompute FREE from R/S rather than trusting the LP values: for an
	// integral (R,S) the definition (5) is exact, and the eliminated
	// diagonal variables are reconstructed inexpensively (Section 4.8).
	s.ComputeFree(f.Inst.G)
	return s
}

// FractionalSched holds the raw fractional R*, S* matrices of an LP
// relaxation solution (Section 5.1), consumed by the rounding strategies.
type FractionalSched struct {
	N    int
	R, S [][]float64
}

// ExtractFractional reads the relaxation solution without rounding.
func (f *Formulation) ExtractFractional(x []float64) *FractionalSched {
	n := f.Inst.G.Len()
	fs := &FractionalSched{N: n, R: floatMat(n, n), S: floatMat(n, n)}
	for t := 0; t < n; t++ {
		for i := 0; i < n; i++ {
			if j := f.rIdx[t][i]; j >= 0 {
				fs.R[t][i] = x[j]
			}
			if j := f.sIdx[t][i]; j >= 0 {
				fs.S[t][i] = x[j]
			}
		}
	}
	return fs
}

func floatMat(r, c int) [][]float64 {
	backing := make([]float64, r*c)
	m := make([][]float64, r)
	for i := range m {
		m[i] = backing[i*c : (i+1)*c]
	}
	return m
}

// InjectIncumbent converts a feasible schedule into a MILP-space vector used
// to seed branch-and-bound. FREE and U entries are derived from the
// schedule's own accounting.
func (f *Formulation) InjectIncumbent(s *Sched) ([]float64, error) {
	if err := s.Validate(f.Inst.G, f.FrontierAdvancing); err != nil {
		return nil, err
	}
	if peak := s.Peak(f.Inst.G, f.Inst.Overhead); peak > f.Inst.Budget {
		return nil, fmt.Errorf("core: incumbent peak %d exceeds budget %d", peak, f.Inst.Budget)
	}
	x := make([]float64, f.Prob.LP.NumVars())
	n := f.Inst.G.Len()
	for t := 0; t < n; t++ {
		for i := 0; i < n; i++ {
			if j := f.rIdx[t][i]; j >= 0 && s.R[t][i] {
				x[j] = 1
			}
			if j := f.sIdx[t][i]; j >= 0 && s.S[t][i] {
				x[j] = 1
			}
		}
		for ei := range f.edges {
			if j := f.freeIdx[t][ei]; j >= 0 && s.Free[t][ei] {
				x[j] = 1
			}
		}
	}
	return x, nil
}

// TrueCost converts a scaled MILP objective back to schedule cost units.
func (f *Formulation) TrueCost(scaledObj float64) float64 {
	return scaledObj * f.costScale
}

// Stats reports the formulation size, matching the paper's O(|V||E|) claim.
func (f *Formulation) Stats() (vars, rows int) {
	return f.Prob.LP.NumVars(), f.Prob.LP.NumRows()
}
