// Package baselines implements every prior-work rematerialization strategy
// the paper compares against (Table 1), together with the paper's own
// generalizations that make them applicable to non-linear architectures
// (Section 6.1, Appendix B):
//
//	Checkpoint all      — retain everything (framework default)
//	Griewank log n      — REVOLVE optimal binomial checkpointing, linear graphs
//	Chen √n             — checkpoint every √n-th node, linear graphs
//	Chen greedy         — memory-equal segments with hyperparameter b
//	AP √n / AP greedy   — Chen's rules over articulation-point candidates
//	Lin. √n / greedy    — Chen's rules over the topological-order linearization
//
// All checkpoint-set strategies share the optimal-R completion: given the
// static checkpoint policy S, the minimal recomputation schedule is derived
// with core.SolveMinR exactly as described for Algorithm 2 and Appendix B
// ("we implement baselines as a static policy for the decision variable S and
// then solve for the lowest-cost recomputation schedule").
package baselines

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/graph"
)

// Target is a training workload to schedule: the joint graph plus metadata.
type Target struct {
	// AD is the autodiff result: joint graph, forward and gradient node IDs.
	AD *autodiff.Result
	// Fwd is the forward graph (used for articulation points and
	// linearization).
	Fwd *graph.Graph
	// Overhead is the constant memory overhead (M_input + 2·M_param).
	Overhead int64
}

// Point is one schedule produced by a strategy at one hyperparameter
// setting.
type Point struct {
	Strategy string
	// Param describes the hyperparameter ("s=4", "b=512MiB", "-").
	Param string
	Sched *core.Sched
	// Cost is the total computation cost of the schedule.
	Cost float64
	// PeakBytes is the schedule's peak memory including overhead.
	PeakBytes int64
}

func (t *Target) point(strategy, param string, s *core.Sched) Point {
	g := t.AD.Graph
	return Point{
		Strategy:  strategy,
		Param:     param,
		Sched:     s,
		Cost:      s.Cost(g),
		PeakBytes: s.Peak(g, t.Overhead),
	}
}

// CheckpointAll returns the paper's ideal no-rematerialization baseline.
func CheckpointAll(t *Target) Point {
	return t.point("checkpoint-all", "-", core.CheckpointAll(t.AD.Graph))
}

// fromKeep converts a forward-node checkpoint set into a completed schedule.
func (t *Target) fromKeep(keep map[graph.NodeID]bool) *core.Sched {
	S := core.FromCheckpointSet(t.AD.Graph, keep)
	return core.SolveMinR(t.AD.Graph, S)
}

// everyKth selects every k-th element of candidates (1-based stride),
// always including the last to anchor the backward pass.
func everyKth(candidates []graph.NodeID, k int) map[graph.NodeID]bool {
	keep := map[graph.NodeID]bool{}
	if k < 1 {
		k = 1
	}
	for i := k - 1; i < len(candidates); i += k {
		keep[candidates[i]] = true
	}
	return keep
}

// ChenSqrtN implements Chen et al. (2016) √n checkpointing on a linear
// forward graph: split into √n segments and store each endpoint. Returns an
// error for non-linear graphs — use APSqrtN or LinearizedSqrtN instead
// (Section 6.1: prior work "cannot be used for modern architectures with
// residual connections").
func ChenSqrtN(t *Target) (Point, error) {
	if !t.Fwd.IsLinear() {
		return Point{}, fmt.Errorf("baselines: Chen √n requires a linear graph; use the AP or Linearized generalization")
	}
	return chenSqrtOver(t, "chen-sqrt(n)", forwardChain(t)), nil
}

func chenSqrtOver(t *Target, name string, candidates []graph.NodeID) Point {
	k := int(math.Ceil(math.Sqrt(float64(len(candidates)))))
	keep := everyKth(candidates, k)
	return t.point(name, fmt.Sprintf("k=%d", k), t.fromKeep(keep))
}

// ChenGreedy implements Chen et al.'s greedy variant on a linear graph:
// walk the graph accumulating activation memory and emit a checkpoint
// whenever the running segment exceeds b bytes. The b sweep yields the
// strategy's memory/compute trade-off curve.
func ChenGreedy(t *Target, b int64) (Point, error) {
	if !t.Fwd.IsLinear() {
		return Point{}, fmt.Errorf("baselines: Chen greedy requires a linear graph; use the AP or Linearized generalization")
	}
	return chenGreedyOver(t, "chen-greedy", forwardChain(t), b), nil
}

func chenGreedyOver(t *Target, name string, candidates []graph.NodeID, b int64) Point {
	keep := map[graph.NodeID]bool{}
	var acc int64
	g := t.AD.Graph
	for _, v := range candidates {
		acc += g.Node(v).Mem
		if acc >= b {
			keep[v] = true
			acc = 0
		}
	}
	if len(candidates) > 0 {
		keep[candidates[len(candidates)-1]] = true
	}
	return t.point(name, fmt.Sprintf("b=%s", fmtBytes(b)), t.fromKeep(keep))
}

// GreedySweep runs a strategy's greedy variant across a log-spaced sweep of
// the segment-size hyperparameter b, returning deduplicated Pareto points
// ("we search over the segment size hyperparameter b", Section 6.1).
func GreedySweep(t *Target, name string, steps int) ([]Point, error) {
	var candidates []graph.NodeID
	switch name {
	case "chen-greedy":
		if !t.Fwd.IsLinear() {
			return nil, fmt.Errorf("baselines: chen-greedy requires a linear graph")
		}
		candidates = forwardChain(t)
	case "ap-greedy":
		candidates = apCandidates(t)
	case "linearized-greedy":
		candidates = forwardChain(t)
	default:
		return nil, fmt.Errorf("baselines: unknown greedy strategy %q", name)
	}
	var total int64
	g := t.AD.Graph
	for _, v := range candidates {
		total += g.Node(v).Mem
	}
	if total == 0 || len(candidates) == 0 {
		return nil, fmt.Errorf("baselines: no candidates for %q", name)
	}
	lo := float64(total) / float64(len(candidates)) / 2
	hi := float64(total)
	var out []Point
	for i := 0; i < steps; i++ {
		frac := float64(i) / float64(steps-1)
		b := int64(lo * math.Pow(hi/lo, frac))
		out = append(out, chenGreedyOver(t, name, candidates, b))
	}
	return paretoFilter(out), nil
}

// forwardChain lists the forward nodes in topological (ID) order.
func forwardChain(t *Target) []graph.NodeID {
	return append([]graph.NodeID(nil), t.AD.Fwd...)
}

// apCandidates returns the articulation points of the forward graph in
// topological order — the checkpoint candidates of the AP generalizations
// (Appendix B.1). The forward output node is always appended as an anchor.
func apCandidates(t *Target) []graph.NodeID {
	aps := t.Fwd.ArticulationPoints()
	out := append([]graph.NodeID(nil), aps...)
	last := graph.NodeID(t.Fwd.Len() - 1)
	if len(out) == 0 || out[len(out)-1] != last {
		out = append(out, last)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// APSqrtN applies Chen's √n rule over articulation-point candidates
// (AP √n in Table 1).
func APSqrtN(t *Target) Point {
	return chenSqrtOver(t, "ap-sqrt(n)", apCandidates(t))
}

// APGreedy applies Chen's greedy rule over articulation-point candidates at
// segment size b (AP greedy in Table 1).
func APGreedy(t *Target, b int64) Point {
	return chenGreedyOver(t, "ap-greedy", apCandidates(t), b)
}

// LinearizedSqrtN applies Chen's √n rule over the full topological order
// (Linearized √n in Table 1, Appendix B.2).
func LinearizedSqrtN(t *Target) Point {
	return chenSqrtOver(t, "linearized-sqrt(n)", forwardChain(t))
}

// LinearizedGreedy applies Chen's greedy rule over the topological order.
func LinearizedGreedy(t *Target, b int64) Point {
	return chenGreedyOver(t, "linearized-greedy", forwardChain(t), b)
}

// paretoFilter removes points dominated in (Cost, PeakBytes).
func paretoFilter(pts []Point) []Point {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].PeakBytes != pts[j].PeakBytes {
			return pts[i].PeakBytes < pts[j].PeakBytes
		}
		return pts[i].Cost < pts[j].Cost
	})
	var out []Point
	bestCost := math.Inf(1)
	for _, p := range pts {
		if p.Cost < bestCost-1e-9 {
			out = append(out, p)
			bestCost = p.Cost
		}
	}
	return out
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/float64(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/float64(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
