package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Operation classes.
const (
	classOK      = "ok"      // answered and passed verification
	classWrong   = "wrong"   // answered, failed verification
	classRefused = "refused" // 503/422/504, ErrSolveLimit or ErrInfeasible
	classError   = "error"   // anything else
)

// Op is one timed operation and its verdict.
type Op struct {
	Instance string
	Class    string
	// Check is the verifier rule broken (wrong) or the error (refused,
	// error); empty for ok.
	Check  string
	Detail string
	// Latency is the operation's time (process CPU time of the Solve call on
	// the zoo workloads, wall time from the due time on the service one);
	// Limit is the latency it must meet to count towards goodput.
	Latency time.Duration
	Limit   time.Duration
	// RanSolve reports that the operation ran a solver (false for cache
	// and store hits).
	RanSolve bool
	// SolveTime is the solver's share of Latency: the whole Solve call on
	// the zoo workloads, the server-reported solve_ms on the service one.
	SolveTime time.Duration
	// Overhead is Cost/IdealCost of a verified schedule.
	Overhead float64
	// AtLimit marks a solve that ran to its time limit.
	AtLimit bool
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric names to figures.
type Metrics map[string]Metric

func (m Metrics) set(name string, value float64, unit string) {
	m[name] = Metric{Value: value, Unit: unit}
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics (0 for none). With few samples, as on the zoo lists, the
// median averages the two middle operations and p99 nears the slowest.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

// geomean returns the geometric mean of positive xs (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// endToEnd computes the metrics every workload reports from its operations.
// makespan is the time of the whole operation list, measured as Latency is.
func endToEnd(ops []Op, setup, makespan time.Duration) Metrics {
	var lat, solve, miss, over []float64
	verified, good := 0, 0
	for _, op := range ops {
		lat = append(lat, ms(op.Latency))
		if op.RanSolve {
			miss = append(miss, ms(op.Latency))
			if op.SolveTime > 0 {
				solve = append(solve, op.SolveTime.Seconds())
			}
		}
		if op.Class != classOK {
			continue
		}
		verified++
		over = append(over, op.Overhead)
		if !op.AtLimit && op.Latency <= op.Limit {
			good++
		}
	}
	m := Metrics{}
	m.set("setup_s", setup.Seconds(), "s")
	m.set("solve_geomean_s", geomean(solve), "s")
	m.set("makespan_s", makespan.Seconds(), "s")
	m.set("overhead_geomean", geomean(over), "x")
	m.set("verified_frac", float64(verified)/float64(max(len(ops), 1)), "ratio")
	m.set("req_p50_ms", quantile(lat, 0.50), "ms")
	m.set("req_p99_ms", quantile(lat, 0.99), "ms")
	m.set("miss_p50_ms", quantile(miss, 0.50), "ms")
	m.set("goodput_rps", float64(good)/makespan.Seconds(), "1/s")
	return m
}

// perLayerNames lists every per-layer metric with its unit; a traced run
// reports all of them, zero where the workload does not reach the layer.
var perLayerNames = [][2]string{
	{"nets.load_ms", "ms"},
	{"core.presolve_ms", "ms"}, {"core.lp_vars", "count"}, {"core.lp_rows", "count"},
	{"lp.root_ms", "ms"}, {"lp.root_iters", "count"}, {"lp.root_ms_per_iter", "ms"},
	{"milp.bb_ms", "ms"}, {"milp.probe_ms", "ms"}, {"milp.nodes", "count"},
	{"milp.simplex_iters", "count"}, {"milp.dual_iters", "count"}, {"milp.probe_iters", "count"},
	{"milp.warm_hit_ratio", "ratio"},
	{"approx.lp_relax_ms", "ms"}, {"approx.rounding_ms", "ms"}, {"approx.eps_solves", "count"},
	{"approx.eps_warm_hits", "count"},
	{"interval.propagate_ms", "ms"}, {"interval.search_ms", "ms"}, {"interval.nodes", "count"},
	{"interval.simplex_iters", "count"}, {"interval.dual_iters", "count"}, {"interval.ms_per_node", "ms"},
	{"schedule.plan_ms", "ms"}, {"schedule.stmts", "count"}, {"checkmate.solve_self_ms", "ms"},
	{"service.solve_ms_p50", "ms"}, {"service.overhead_p50_ms", "ms"},
	{"cache.hits", "count"}, {"cache.misses", "count"}, {"cache.evictions", "count"},
	{"cache.hit_ratio", "ratio"}, {"cache.hit_p50_ms", "ms"},
	{"store.hits", "count"}, {"store.misses", "count"}, {"store.writes", "count"},
	{"pool.solves", "count"}, {"pool.deduped", "count"}, {"pool.queue_depth_max", "count"},
	{"admission.rejected", "count"},
	{"loadgen.lag_max_ms", "ms"}, {"bench.verify_ms", "ms"}, {"trace.overhead_frac", "ratio"},
}

// perLayer fills every per-layer metric from vals, zero where absent.
func perLayer(vals map[string]float64) Metrics {
	m := Metrics{}
	for _, nu := range perLayerNames {
		m.set(nu[0], vals[nu[0]], nu[1])
	}
	return m
}

// layerTimes maps span self times onto the solver-layer metrics shared by
// the zoo workloads and the service's cold solves.
func layerTimes(vals map[string]float64, self map[string]time.Duration) {
	vals["core.presolve_ms"] = ms(self["presolve"])
	vals["lp.root_ms"] = ms(self["root_lp"])
	vals["milp.bb_ms"] = ms(self["branch_and_bound"] + self["node_batch"])
	vals["milp.probe_ms"] = ms(self["probe"])
	vals["approx.lp_relax_ms"] = ms(self["lp_relax"])
	vals["approx.rounding_ms"] = ms(self["rounding"])
	vals["interval.propagate_ms"] = ms(self["interval_propagate"])
	vals["interval.search_ms"] = ms(self["interval_search"])
	vals["schedule.plan_ms"] = ms(self["plan"])
	vals["checkmate.solve_self_ms"] = ms(self["solve"])
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish classifies failures against the known defects, writes the
// human-readable report and returns the result line. correct is false when
// any answer failed verification or errored without being a registered
// known defect; registered defects still count as failed.
func finish(w io.Writer, cfg *Config, workload string, ops []Op, metrics Metrics, counts []string) Result {
	known := make(map[string]KnownDefect)
	for _, d := range cfg.KnownDefects {
		if d.Workload == workload {
			known[d.Instance] = d
		}
	}
	res := Result{Correct: true, Attempted: len(ops), Metrics: metrics}
	seen := make(map[string]bool)
	for _, op := range ops {
		if op.AtLimit {
			fmt.Fprintf(w, "limit   %-28s ran to its %g s time limit\n", op.Instance, op.Limit.Seconds())
		}
		if op.Class == classOK {
			continue
		}
		res.Failed++
		tag := ""
		if d, ok := known[op.Instance]; ok && d.Check == op.Check {
			seen[op.Instance] = true
			tag = " [known defect]"
		} else if op.Class == classWrong || op.Class == classError {
			res.Correct = false
			tag = " [UNEXPECTED]"
		}
		fmt.Fprintf(w, "%-7s %-28s %s: %s%s\n", op.Class, op.Instance, op.Check, op.Detail, tag)
	}
	for inst := range known {
		if !seen[inst] {
			fmt.Fprintf(w, "note    %-28s known defect did not reproduce\n", inst)
		}
	}
	if len(counts) > 0 {
		fmt.Fprintf(w, "exact counts: %s\n", strings.Join(counts, " "))
	}
	return res
}

func printResult(w io.Writer, r Result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
