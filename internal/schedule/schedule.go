// Package schedule turns solved rematerialization matrices into concrete
// execution plans (paper Section 4.9, Algorithm 1), optimizes them with
// deallocation code motion, and simulates their execution to track memory.
//
// A plan is a program P = (s₁,…,s_k) over three statement kinds:
//
//	%r = allocate v   — create a virtual register for v's output
//	compute v, %r     — run operation v, writing through %r
//	deallocate %r     — release the register and its value
//
// The simulator walks a plan, maintaining resident-register state, verifying
// correctness (every compute has its dependencies resident; no register is
// freed twice or used after free) and reporting the memory high-water mark,
// which must match the MILP's U accounting.
package schedule

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// OpKind discriminates plan statements.
type OpKind int8

// Statement kinds.
const (
	OpAllocate OpKind = iota
	OpCompute
	OpDeallocate
)

// Stmt is one plan statement.
type Stmt struct {
	Kind OpKind
	// Node is the operation (for allocate/compute).
	Node graph.NodeID
	// Reg is the virtual register.
	Reg int
	// Stage records which schedule stage emitted the statement.
	Stage int
}

func (s Stmt) String() string {
	switch s.Kind {
	case OpAllocate:
		return fmt.Sprintf("%%r%d = allocate v%d", s.Reg, s.Node)
	case OpCompute:
		return fmt.Sprintf("compute v%d, %%r%d", s.Node, s.Reg)
	case OpDeallocate:
		return fmt.Sprintf("deallocate %%r%d", s.Reg)
	}
	return "?"
}

// Plan is a concrete execution plan.
type Plan struct {
	Stmts []Stmt
	// NumRegs is the total number of virtual registers allocated.
	NumRegs int
	// RegNode maps register -> producing node.
	RegNode []graph.NodeID
}

// String renders the plan one statement per line.
func (p *Plan) String() string {
	var b strings.Builder
	for _, s := range p.Stmts {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Generate implements Algorithm 1: a row-major scan of (R, S, FREE) emitting
// allocate/compute statements for every R[t][k] = 1 and deallocations
// according to FREE (including the reconstructed diagonal frees of
// Section 4.8).
func Generate(g *graph.Graph, s *core.Sched) (*Plan, error) {
	n := s.N
	edges := g.Edges()
	edgesInto := make([][]int, n)
	for ei, e := range edges {
		edgesInto[e[1]] = append(edgesInto[e[1]], ei)
	}
	selfFree := s.ComputeFree(g)

	p := &Plan{}
	regs := make([]int, n) // node -> live register, -1 if none
	for i := range regs {
		regs[i] = -1
	}
	newReg := func(v graph.NodeID) int {
		r := p.NumRegs
		p.NumRegs++
		p.RegNode = append(p.RegNode, v)
		return r
	}
	for t := 0; t < n; t++ {
		// Values resident from earlier stages but not checkpointed into this
		// stage (S[t][i] = 0) leave the paper's memory accounting at the
		// stage boundary (eq. (2) counts only checkpoints in the base term);
		// release them here. Constraint (1b) guarantees any in-stage user
		// recomputes such a value, so this is always safe, and it realizes
		// the Section 4.9 remark that spurious checkpoints "can be
		// deallocated at the start of the stage".
		if t > 0 {
			for i := 0; i < n; i++ {
				if regs[i] >= 0 && !s.S[t][i] {
					p.Stmts = append(p.Stmts, Stmt{Kind: OpDeallocate, Reg: regs[i], Stage: t})
					regs[i] = -1
				}
			}
		}
		for k := 0; k < n; k++ {
			if s.R[t][k] {
				r := newReg(graph.NodeID(k))
				p.Stmts = append(p.Stmts,
					Stmt{Kind: OpAllocate, Node: graph.NodeID(k), Reg: r, Stage: t},
					Stmt{Kind: OpCompute, Node: graph.NodeID(k), Reg: r, Stage: t})
				regs[k] = r
			}
			// Free vk and dependencies per FREE.
			for _, ei := range edgesInto[k] {
				if s.Free[t][ei] {
					i := int(edges[ei][0])
					if regs[i] < 0 {
						return nil, fmt.Errorf("schedule: stage %d frees value %d with no live register", t, i)
					}
					p.Stmts = append(p.Stmts, Stmt{Kind: OpDeallocate, Reg: regs[i], Stage: t})
					regs[i] = -1
				}
			}
			if selfFree[t][k] {
				if regs[k] >= 0 {
					p.Stmts = append(p.Stmts, Stmt{Kind: OpDeallocate, Reg: regs[k], Stage: t})
					regs[k] = -1
				}
			}
		}
	}
	return p, nil
}

// MoveDeallocationsEarlier performs the code-motion optimization of
// Section 4.9: each deallocation is hoisted to just after the last statement
// that actually uses the register (the producing compute or a consuming
// compute). Spurious checkpoints unused within a stage are thereby freed at
// the start of the stage rather than mid-stage. The transformation cannot
// increase peak memory; the solver's budget guarantee is preserved.
func MoveDeallocationsEarlier(g *graph.Graph, p *Plan) *Plan {
	lastUse := make([]int, p.NumRegs) // register -> statement index of last use
	for i := range lastUse {
		lastUse[i] = -1
	}
	// A register is used by its producing compute and by computes of its
	// consumers that occur while it is live.
	regOf := make(map[graph.NodeID]int) // node -> live register at scan point
	for si, st := range p.Stmts {
		switch st.Kind {
		case OpAllocate:
			regOf[st.Node] = st.Reg
			lastUse[st.Reg] = si
		case OpCompute:
			lastUse[st.Reg] = si
			for _, d := range g.Deps(st.Node) {
				if r, ok := regOf[d]; ok {
					lastUse[r] = si
				}
			}
		case OpDeallocate:
			node := p.RegNode[st.Reg]
			if regOf[node] == st.Reg {
				delete(regOf, node)
			}
		}
	}
	// Rebuild: emit deallocations immediately after their register's last
	// use.
	dealloc := make(map[int][]int) // statement index -> registers to free
	for _, st := range p.Stmts {
		if st.Kind == OpDeallocate {
			at := lastUse[st.Reg]
			dealloc[at] = append(dealloc[at], st.Reg)
		}
	}
	out := &Plan{NumRegs: p.NumRegs, RegNode: p.RegNode}
	for si, st := range p.Stmts {
		if st.Kind != OpDeallocate {
			out.Stmts = append(out.Stmts, st)
		}
		for _, r := range dealloc[si] {
			out.Stmts = append(out.Stmts, Stmt{Kind: OpDeallocate, Reg: r, Stage: st.Stage})
		}
	}
	return out
}

// SimResult is the outcome of simulating a plan.
type SimResult struct {
	// PeakBytes is the high-water memory mark including the constant
	// overhead.
	PeakBytes int64
	// TotalCost is the summed cost of all computes.
	TotalCost float64
	// Computes counts compute statements.
	Computes int
	// Trace records memory-in-use after every statement (for Figure 1).
	Trace []int64
}

// Simulate executes the plan against the graph, enforcing correctness:
// every register holds a node of the graph and is allocated and computed
// for that node, computes require all dependencies resident, registers are
// written once, deallocations target live registers. overhead is added to
// all memory readings.
func Simulate(g *graph.Graph, p *Plan, overhead int64) (*SimResult, error) {
	for r, v := range p.RegNode {
		if v < 0 || int(v) >= g.Len() {
			return nil, fmt.Errorf("schedule: register %%r%d holds v%d, not a node of the %d-node graph", r, v, g.Len())
		}
	}
	res := &SimResult{}
	var mem int64 = overhead
	res.PeakBytes = mem
	regLive := make([]bool, p.NumRegs)
	regWritten := make([]bool, p.NumRegs)
	valueReg := make(map[graph.NodeID]int)
	record := func() {
		res.Trace = append(res.Trace, mem)
		if mem > res.PeakBytes {
			res.PeakBytes = mem
		}
	}
	for si, st := range p.Stmts {
		if st.Kind != OpDeallocate && st.Node != p.RegNode[st.Reg] {
			return nil, fmt.Errorf("schedule: stmt %d: v%d through %%r%d, which holds v%d", si, st.Node, st.Reg, p.RegNode[st.Reg])
		}
		switch st.Kind {
		case OpAllocate:
			if regLive[st.Reg] {
				return nil, fmt.Errorf("schedule: stmt %d: register %%r%d allocated twice", si, st.Reg)
			}
			regLive[st.Reg] = true
			mem += g.Node(st.Node).Mem
		case OpCompute:
			if !regLive[st.Reg] {
				return nil, fmt.Errorf("schedule: stmt %d: compute into dead register %%r%d", si, st.Reg)
			}
			if regWritten[st.Reg] {
				return nil, fmt.Errorf("schedule: stmt %d: register %%r%d written twice", si, st.Reg)
			}
			for _, d := range g.Deps(st.Node) {
				r, ok := valueReg[d]
				if !ok || !regLive[r] || !regWritten[r] {
					return nil, fmt.Errorf("schedule: stmt %d: compute v%d missing dependency v%d", si, st.Node, d)
				}
			}
			regWritten[st.Reg] = true
			valueReg[st.Node] = st.Reg
			res.TotalCost += g.Node(st.Node).Cost
			res.Computes++
		case OpDeallocate:
			if !regLive[st.Reg] {
				return nil, fmt.Errorf("schedule: stmt %d: double free of %%r%d", si, st.Reg)
			}
			regLive[st.Reg] = false
			node := p.RegNode[st.Reg]
			mem -= g.Node(node).Mem
			if r, ok := valueReg[node]; ok && r == st.Reg {
				delete(valueReg, node)
			}
		}
		record()
	}
	return res, nil
}

// StageBoundaries returns, for each stage, the index of its first statement;
// used by visualizations.
func StageBoundaries(p *Plan) []int {
	var out []int
	last := -1
	for si, st := range p.Stmts {
		if st.Stage != last {
			out = append(out, si)
			last = st.Stage
		}
	}
	return out
}
