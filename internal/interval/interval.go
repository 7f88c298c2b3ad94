// Package interval solves the rematerialization problem with a
// retention-interval formulation in the style of Moccasin (Bartan et al.,
// "Moccasin: Efficient Tensor Rematerialization for Neural Networks",
// 2023) instead of the paper's stage×tensor MILP.
//
// The observation: in a frontier-advancing schedule the checkpoint matrix S
// fully determines the cheapest computation matrix R (core.SolveMinR), and
// an optimal S never retains a value past a use — so every column of S
// decomposes into retention intervals, each ending at a use of the value.
// The decision space is one interval per graph edge (i, j): between the
// previous use of value i and its use by j, the value is retained from some
// start stage s through j's stage. s at the window's left edge is a free
// checkpoint (the value was just produced); a later s means recomputing i
// once at s-1 and retaining only the suffix — the classic
// checkpoint-segment pattern; s past the window means no retention and an
// in-stage rematerialization cascade at j. That is O(|E|) interval
// variables with integer start domains instead of the MILP's O(n²)
// stage×tensor binaries, and because consecutive windows of one value are
// disjoint, the per-stage memory budget is a plain knapsack over window
// occupancies.
//
// The solver is a best-first branch-and-bound over window start domains:
// constraint propagation narrows them (budget-knapsack forcing over
// overlapping windows, precedence-driven narrowing against recompute
// residency floors), the lp engine prices an interval relaxation for
// admissible bounds (warm-started down the tree via basis chaining), and
// every candidate is completed into a full schedule with core.SolveMinR and
// verified against the exact per-evaluation-point memory recurrence.
// Within this interval space the search is exact: run to closure it proves
// optimality; under a time limit it is an anytime solver returning the
// best verified incumbent. The relaxation bound is admissible for the full
// MILP space, so reported gaps are honest even where the interval space is
// a restriction (retention past a value's last use is not expressible).
package interval

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/milp"
)

// window is one potential retention interval of a value: val may be kept
// resident over some suffix [s..to] of the stage range [from..to], where
// stage to is the use that ends the window and from-1 is the previous use
// (or the creation). The decision is the start s ∈ [from..to+1]:
//
//	s = from   — free checkpoint: retained from the previous availability.
//	s ∈ (from..to] — recompute val once in stage s-1, retain [s..to].
//	s = to+1   — no retention: val is rematerialized in stage to, and its
//	             own dependencies cascade if they are not resident there.
//
// Every s > from costs one recomputation of val; they differ only in
// memory occupancy.
type window struct {
	val, user int
	from, to  int
	mem       int64
	cost      float64
	// y0 is the LP column of y_{w,from}; columns y0..y0+(tEnd-from) hold
	// the occupancy variables y_{w,t} ("retained into stage t") for stages
	// from..tEnd, monotone non-decreasing in t (retention is a suffix).
	y0, tEnd int
}

// col returns the LP column of y_{w,t}.
func (w *window) col(t int) int { return w.y0 + t - w.from }

// Options tune the interval solver. The zero value selects defaults.
type Options struct {
	// TimeLimit bounds the search wall clock (default 60 s). On expiry the
	// best verified incumbent is returned with StatusFeasible.
	TimeLimit time.Duration
	// MaxNodes caps branch-and-bound nodes (default unlimited).
	MaxNodes int
	// RelGap is the accepted relative optimality gap (default 1e-6).
	RelGap float64

	// Progress hooks, delivered synchronously from the search goroutine.
	OnStart     func(vars, rows int)
	OnIncumbent func(obj, bound float64)
	OnBound     func(bound float64)
}

// Result is the outcome of an interval solve. Status follows the milp
// taxonomy: Optimal (incumbent proven within RelGap of the interval-space
// optimum; Bound certifies the remaining gap to the full MILP space),
// Feasible (incumbent found, limits hit first), Infeasible (no
// interval-space schedule fits the budget), Limit (limits hit before any
// incumbent).
type Result struct {
	Sched *core.Sched
	Cost  float64
	// Bound is the proven lower bound; it is valid for the full MILP
	// space, not just the interval space.
	Bound  float64
	Status milp.Status
	// Windows counts retention windows (one per graph edge); Vars and Rows
	// are the interval relaxation's LP dimensions.
	Windows int
	Vars    int
	Rows    int
	Nodes   int
	// Solver carries the LP engine counters in the same bag the MILP path
	// uses, so they flow through events, /v1/stats, and the bench record.
	Solver    milp.Counters
	SolveTime time.Duration
}

// problem is the compiled instance: windows, per-stage knapsack rows, and
// the shared relaxation LP whose variable bounds encode the search nodes'
// start domains.
type problem struct {
	g        *graph.Graph
	n        int
	budget   int64
	overhead int64

	wins []window
	// rowsOf[t] lists windows whose occupancy loads the stage-t knapsack
	// row (stages from..to-1: a window's end stage is excluded, its value
	// being accounted as a dependency constant in rowRHS[to]).
	rowsOf [][]int32
	// coverOf[t] lists every window with from ≤ t ≤ to — potential
	// residency including end stages, used by propagation floors and
	// schedule repair.
	coverOf [][]int32
	rowRHS  []int64

	rel *lp.Problem
	// base is the constant of the relaxation objective: the checkpoint-all
	// cost plus every window's recompute penalty (the LP credits windows
	// kept from their left edge).
	base float64
}

// compile builds the window set, knapsack rows, and relaxation LP for an
// instance. A stage whose unavoidable residency (the node computed there,
// its dependencies, and the constant overhead) already exceeds the budget
// makes the instance infeasible outright.
func compile(inst core.Instance) (*problem, error) {
	g := inst.G
	n := g.Len()
	pb := &problem{
		g: g, n: n,
		budget:   inst.Budget,
		overhead: inst.Overhead,
		rowsOf:   make([][]int32, n),
		coverOf:  make([][]int32, n),
		rowRHS:   make([]int64, n),
	}
	for i := 0; i < n; i++ {
		node := g.Node(graph.NodeID(i))
		users := append([]graph.NodeID(nil), g.Users(graph.NodeID(i))...)
		sort.Slice(users, func(a, b int) bool { return users[a] < users[b] })
		prev := i
		for _, u := range users {
			w := window{
				val: i, user: int(u),
				from: prev + 1, to: int(u),
				mem: node.Mem, cost: node.Cost,
			}
			w.tEnd = w.to - 1
			if w.tEnd < w.from {
				w.tEnd = w.from
			}
			pb.wins = append(pb.wins, w)
			prev = int(u)
		}
	}
	// Per-stage knapsack capacity: budget minus the overhead, the value
	// computed at the stage, and its dependencies — all resident at the
	// stage's evaluation point whether retained or recomputed.
	for t := 0; t < n; t++ {
		need := pb.overhead + g.Node(graph.NodeID(t)).Mem
		for _, d := range g.Deps(graph.NodeID(t)) {
			need += g.Node(d).Mem
		}
		pb.rowRHS[t] = pb.budget - need
		if pb.rowRHS[t] < 0 {
			return nil, fmt.Errorf("interval: stage %d needs %d bytes, over budget %d", t, need, inst.Budget)
		}
	}
	for wi := range pb.wins {
		w := &pb.wins[wi]
		for t := w.from; t < w.to; t++ {
			pb.rowsOf[t] = append(pb.rowsOf[t], int32(wi))
		}
		for t := w.from; t <= w.to; t++ {
			pb.coverOf[t] = append(pb.coverOf[t], int32(wi))
		}
	}
	pb.rel = &lp.Problem{}
	pb.base = g.TotalCost()
	for wi := range pb.wins {
		w := &pb.wins[wi]
		pb.base += w.cost
		w.y0 = pb.rel.NumVars()
		for t := w.from; t <= w.tEnd; t++ {
			c := 0.0
			if t == w.from {
				c = -w.cost // kept from the left edge ⇒ no recomputation
			}
			pb.rel.AddVar(0, 1, c, fmt.Sprintf("y%d_%d@%d", w.val, w.user, t))
		}
		// Suffix structure: occupancy is monotone along the window.
		for t := w.from; t < w.tEnd; t++ {
			pb.rel.AddRow(lp.LE, 0,
				[]int32{int32(w.col(t)), int32(w.col(t + 1))}, []float64{1, -1})
		}
	}
	for t := 1; t < n; t++ {
		if len(pb.rowsOf[t]) == 0 {
			continue
		}
		idxs := make([]int32, len(pb.rowsOf[t]))
		vals := make([]float64, len(pb.rowsOf[t]))
		for k, wi := range pb.rowsOf[t] {
			idxs[k] = int32(pb.wins[wi].col(t))
			vals[k] = float64(pb.wins[wi].mem)
		}
		pb.rel.AddRow(lp.LE, float64(pb.rowRHS[t]), idxs, vals)
	}
	return pb, nil
}

// rootDomain returns the initial start domains [lo..hi] (hi = to+1 allows
// dropping). Zero-size values are pinned to a free checkpoint: retaining
// them costs no memory and saves their recomputation.
func (pb *problem) rootDomain() (lo, hi []int32) {
	lo = make([]int32, len(pb.wins))
	hi = make([]int32, len(pb.wins))
	for wi := range pb.wins {
		w := &pb.wins[wi]
		lo[wi] = int32(w.from)
		hi[wi] = int32(w.to + 1)
		if w.mem == 0 {
			hi[wi] = int32(w.from)
		}
	}
	return lo, hi
}

// propagate narrows the start domains in place to a fixpoint:
//
//   - budget-knapsack forcing: a stage row whose committed occupancy
//     (windows that must be resident there) cannot admit another window's
//     memory pushes that window's start past the stage; an overloaded
//     committed row is a dead end.
//   - precedence-driven narrowing: starting a window at s means val, its
//     dependencies, and the stage's committed residency coexist in stage
//     s-1 (the recompute stage) — start stages whose residency floor
//     exceeds the budget are shaved off both domain ends, and a window
//     whose in-stage rematerialization cannot fit loses the drop option.
//
// Returns false when some domain empties (the node is infeasible).
func (pb *problem) propagate(lo, hi []int32) bool {
	mark := make([]bool, pb.n)
	for changed := true; changed; {
		changed = false
		for t := 1; t < pb.n; t++ {
			row := pb.rowsOf[t]
			if len(row) == 0 {
				continue
			}
			var sure int64
			for _, wi := range row {
				if int(hi[wi]) <= t {
					sure += pb.wins[wi].mem
				}
			}
			if sure > pb.rowRHS[t] {
				return false
			}
			for _, wi := range row {
				if int(lo[wi]) <= t && t < int(hi[wi]) && sure+pb.wins[wi].mem > pb.rowRHS[t] {
					lo[wi] = int32(t + 1)
					if lo[wi] > hi[wi] {
						return false
					}
					changed = true
				}
			}
		}
		for wi := range pb.wins {
			w := &pb.wins[wi]
			// Drop option: rematerializing val in stage to.
			if int(hi[wi]) == w.to+1 && pb.stageFloor(wi, w.to, hi, mark) > pb.budget {
				hi[wi] = int32(w.to)
				if lo[wi] > hi[wi] {
					return false
				}
				changed = true
			}
			// Late starts: s = hi recomputes val in stage hi-1.
			for int(hi[wi]) <= w.to && int(hi[wi]) > w.from && hi[wi] > lo[wi] {
				if pb.stageFloor(wi, int(hi[wi])-1, hi, mark) <= pb.budget {
					break
				}
				hi[wi]--
				changed = true
			}
			// Early non-free starts: s = lo > from recomputes in stage lo-1
			// (s = from is a free checkpoint, never a recompute).
			for int(lo[wi]) > w.from && lo[wi] <= hi[wi] && int(lo[wi]) <= w.to {
				if pb.stageFloor(wi, int(lo[wi])-1, hi, mark) <= pb.budget {
					break
				}
				lo[wi]++
				changed = true
			}
			if lo[wi] > hi[wi] {
				return false
			}
		}
	}
	return true
}

// stageFloor is the residency floor of recomputing window wi's value in
// stage u: the overhead, every window committed resident in u, the value
// itself, and its not-committed dependencies. mark is caller-provided
// all-false scratch, restored before returning.
func (pb *problem) stageFloor(wi int, u int, hi []int32, mark []bool) int64 {
	w := &pb.wins[wi]
	floor := pb.overhead
	cover := pb.coverOf[u]
	for _, ci := range cover {
		if int(ci) != wi && int(hi[ci]) <= u && !mark[pb.wins[ci].val] {
			mark[pb.wins[ci].val] = true
			floor += pb.wins[ci].mem
		}
	}
	floor += w.mem
	for _, d := range pb.g.Deps(graph.NodeID(w.val)) {
		if !mark[d] {
			floor += pb.g.Node(d).Mem
		}
	}
	for _, ci := range cover {
		mark[pb.wins[ci].val] = false
	}
	return floor
}

// applyDomains encodes start domains as occupancy-variable bounds on the
// shared relaxation LP: stages at or past hi are surely retained, stages
// before lo surely not.
func (pb *problem) applyDomains(lo, hi []int32) {
	for wi := range pb.wins {
		w := &pb.wins[wi]
		for t := w.from; t <= w.tEnd; t++ {
			switch {
			case int(hi[wi]) <= t:
				pb.rel.SetBounds(w.col(t), 1, 1)
			case int(lo[wi]) > t:
				pb.rel.SetBounds(w.col(t), 0, 0)
			default:
				pb.rel.SetBounds(w.col(t), 0, 1)
			}
		}
	}
}

// evaluate completes a start assignment into a full schedule and verifies
// it against the exact memory recurrence. The returned cost is exact; ok
// reports budget feasibility, and peakStage locates the peak for repair.
func (pb *problem) evaluate(start []int32) (s *core.Sched, cost float64, ok bool, peakStage int) {
	n := pb.n
	backing := make([]bool, n*n)
	S := make([][]bool, n)
	for t := range S {
		S[t] = backing[t*n : (t+1)*n]
	}
	for wi := range pb.wins {
		w := &pb.wins[wi]
		for t := int(start[wi]); t <= w.to; t++ {
			S[t][w.val] = true
		}
	}
	s = core.SolveMinR(pb.g, S)
	prof := s.MemUsage(pb.g, pb.overhead)
	cost = s.Cost(pb.g)
	if prof.Peak <= pb.budget {
		return s, cost, true, 0
	}
	for t, hi := range prof.Stage {
		if hi == prof.Peak {
			peakStage = t
		}
	}
	return s, cost, false, peakStage
}
