package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"

	"repro/checkmate"
	"repro/internal/schedule"
)

// fixture solves a small zoo model with a prior-work heuristic and returns
// the reference the benchmark would build for it plus a correct answer.
func fixture(t *testing.T, baseline string, budget int64) (Reference, Answer) {
	t.Helper()
	wl, err := checkmate.Load("vgg16", checkmate.Options{Batch: 4, CoarseSegments: 12})
	if err != nil {
		t.Fatal(err)
	}
	own, err := checkmate.Load("vgg16", checkmate.Options{Batch: 4, CoarseSegments: 12})
	if err != nil {
		t.Fatal(err)
	}
	if budget == 0 {
		budget = wl.CheckpointAllPeak()
	}
	s, err := checkmate.Solve(context.Background(), checkmate.Request{Workload: wl, Method: checkmate.Baseline, Baseline: baseline, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	ref := Reference{Graph: own.Graph, Overhead: own.Overhead, Baseline: math.Inf(1), RelGap: 1e-6}
	return ref, Answer{Plan: s.Plan, Budget: budget, Cost: s.Cost, IdealCost: s.IdealCost, PeakBytes: s.PeakBytes}
}

func wantCheck(t *testing.T, err error, check string) {
	t.Helper()
	var ce *CheckError
	if !errors.As(err, &ce) || ce.Check != check {
		t.Fatalf("Verify = %v, want check %q", err, check)
	}
}

func TestVerifyAcceptsCorrectPlan(t *testing.T) {
	ref, a := fixture(t, "checkpoint-all", 0)
	if err := Verify(ref, a); err != nil {
		t.Fatalf("correct plan rejected: %v", err)
	}
	// A budget equal to the replayed peak is feasible to the byte.
	a.Budget = a.PeakBytes
	if err := Verify(ref, a); err != nil {
		t.Fatalf("plan at exactly its peak rejected: %v", err)
	}
}

func TestVerifyRejectsOneByteOverBudget(t *testing.T) {
	ref, a := fixture(t, "checkpoint-all", 0)
	a.Budget = a.PeakBytes - 1
	wantCheck(t, Verify(ref, a), checkOverBudget)
}

func TestVerifyRejectsMissingDependency(t *testing.T) {
	ref, a := fixture(t, "checkpoint-all", 0)
	// Drop the first compute whose value another node reads: the register
	// stays allocated but unwritten, so its user finds no resident input.
	plan := *a.Plan
	plan.Stmts = nil
	dropped := false
	for _, st := range a.Plan.Stmts {
		if !dropped && st.Kind == schedule.OpCompute && len(ref.Graph.Users(st.Node)) > 0 {
			dropped = true
			continue
		}
		plan.Stmts = append(plan.Stmts, st)
	}
	a.Plan = &plan
	wantCheck(t, Verify(ref, a), checkReplay)
}

func TestVerifyRejectsUncomputedSink(t *testing.T) {
	ref, a := fixture(t, "checkpoint-all", 0)
	sinks := ref.Graph.Sinks()
	plan := *a.Plan
	plan.Stmts = nil
	for _, st := range a.Plan.Stmts {
		if st.Kind == schedule.OpCompute && st.Node == sinks[0] {
			continue
		}
		plan.Stmts = append(plan.Stmts, st)
	}
	a.Plan = &plan
	a.Cost -= ref.Graph.Node(sinks[0]).Cost
	wantCheck(t, Verify(ref, a), checkSink)
}

func TestVerifyRejectsCostMismatch(t *testing.T) {
	ref, a := fixture(t, "checkpoint-all", 0)
	a.Cost *= 1 + 1e-7
	wantCheck(t, Verify(ref, a), checkCost)
}

func TestVerifyRejectsPeakAndIdealMismatch(t *testing.T) {
	ref, a := fixture(t, "checkpoint-all", 0)
	b := a
	b.PeakBytes--
	wantCheck(t, Verify(ref, b), checkPeakMismatch)
	c := a
	c.IdealCost *= 1.5
	wantCheck(t, Verify(ref, c), checkIdeal)
}

func TestVerifyRejectsFalseOptimal(t *testing.T) {
	// A √n checkpointing plan recomputes forward values, so it costs more
	// than checkpoint-all, which also fits its budget: claiming it optimal
	// is false.
	wl, err := checkmate.Load("vgg16", checkmate.Options{Batch: 4, CoarseSegments: 12})
	if err != nil {
		t.Fatal(err)
	}
	budget := wl.CheckpointAllPeak()
	ref, a := fixture(t, "ap-sqrt(n)", budget)
	if err := Verify(ref, a); err != nil {
		t.Fatalf("heuristic plan rejected: %v", err)
	}
	base, err := cheapestBaseline(context.Background(), wl, ref.Graph, ref.Overhead, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !(base < a.Cost) {
		t.Fatalf("fixture: cheapest baseline %g does not beat the plan's cost %g", base, a.Cost)
	}
	ref.Baseline = base
	a.Optimal = true
	wantCheck(t, Verify(ref, a), checkFalseOptimal)
	// The same claim within the relative gap of the reference passes.
	ref.Baseline = a.Cost / (1 + ref.RelGap/2)
	if err := Verify(ref, a); err != nil {
		t.Fatalf("optimal claim within the gap rejected: %v", err)
	}
}

func TestVerifyRejectsFalseInfeasible(t *testing.T) {
	ref := Reference{Baseline: 123.5}
	wantCheck(t, VerifyInfeasible(ref), checkFalseInfeasible)
	class, check, _ := classifySolveErr(fmt.Errorf("solve: %w", checkmate.ErrInfeasible), ref)
	if class != classWrong || check != checkFalseInfeasible {
		t.Errorf("zoo infeasible with a fitting baseline: %s/%s, want wrong/%s", class, check, checkFalseInfeasible)
	}
	// With no baseline fitting, the claim may be true: refused, not wrong.
	ref.Baseline = math.Inf(1)
	if err := VerifyInfeasible(ref); err != nil {
		t.Errorf("no baseline fits: %v", err)
	}
	if class, _, _ := classifySolveErr(fmt.Errorf("solve: %w", checkmate.ErrInfeasible), ref); class != classRefused {
		t.Errorf("zoo infeasible with no fitting baseline: %s, want refused", class)
	}
}

func TestJudgeClassifiesServiceInfeasible(t *testing.T) {
	fits, none := svcKey{"vgg16", 1}, svcKey{"vgg16", 2}
	env := &svcEnv{
		refs: map[svcKey]Reference{fits: {Baseline: 10}, none: {Baseline: math.Inf(1)}},
		reqs: []svcReq{{key: fits, name: "fits"}, {key: none, name: "none"}, {key: fits, name: "busy"}},
	}
	replies := []reply{
		{status: http.StatusUnprocessableEntity, err: errors.New("status 422")},
		{status: http.StatusUnprocessableEntity, err: errors.New("status 422")},
		{status: http.StatusServiceUnavailable, err: errors.New("status 503")},
	}
	p := &loadPhase{}
	p.judge(ServiceWorkload{LatencyLimitMS: 1000}, env, replies)
	want := [][2]string{{classWrong, checkFalseInfeasible}, {classRefused, "http_422"}, {classRefused, "http_503"}}
	for i, op := range p.ops {
		if op.Class != want[i][0] || op.Check != want[i][1] {
			t.Errorf("%s: %s/%s, want %s/%s", op.Instance, op.Class, op.Check, want[i][0], want[i][1])
		}
	}
}

func TestTracedPassIsVerifiedAndCounted(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	wd := ZooWorkload{Instances: []Instance{{Model: "vgg16", Segments: 12, Fraction: 0.5, Method: "interval", TimeLimitS: 20}}}
	m, ops, _, err := runZooWorkload(context.Background(), cfg, "tiny", wd, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0].Class != classOK || ops[1].Class != classOK {
		t.Fatalf("traced run: got %+v, want one verified op per pass", ops)
	}
	if _, ok := m["trace.overhead_frac"]; !ok {
		t.Errorf("traced run lacks trace.overhead_frac: %v", m)
	}
	// A wrong answer in the traced pass alone fails the run.
	ops[1].Class, ops[1].Check = classWrong, checkOverBudget
	if r := finish(io.Discard, cfg, "tiny", ops, m, nil); r.Correct || r.Failed != 1 || r.Attempted != 2 {
		t.Fatalf("wrong traced answer: got correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
}

func TestChromeSelfTimes(t *testing.T) {
	var ct chromeTrace
	add := func(name string, ts, dur float64) {
		ct.TraceEvents = append(ct.TraceEvents, struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		}{name, "X", ts, dur, 0})
	}
	add("solve", 0, 100)
	add("presolve", 0, 10)
	add("branch_and_bound", 10, 80)
	add("root_lp", 15, 50)
	add("plan", 90, 5)
	got := chromeSelfTimes(ct)
	want := map[string]float64{"solve": 5, "presolve": 10, "branch_and_bound": 30, "root_lp": 50, "plan": 5}
	for name, us := range want {
		if d := got[name].Seconds() * 1e6; math.Abs(d-us) > 1e-6 {
			t.Errorf("%s self = %gµs, want %gµs", name, d, us)
		}
	}
}

func TestQuantileAndGeomean(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("p50 = %g, want 2.5", q)
	}
	if q := quantile(xs, 0.99); math.Abs(q-3.97) > 1e-12 {
		t.Errorf("p99 = %g, want 3.97", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("p100 = %g, want 4", q)
	}
	if g := geomean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean = %g, want 2", g)
	}
}

func TestKnownDefectKeepsCorrectButCountsFailure(t *testing.T) {
	cfg := &Config{KnownDefects: []KnownDefect{{Workload: "w", Instance: "a", Check: checkOverBudget}}}
	ops := []Op{
		{Instance: "a", Class: classWrong, Check: checkOverBudget},
		{Instance: "b", Class: classOK},
	}
	out := io.Discard
	r := finish(out, cfg, "w", ops, Metrics{}, nil)
	if !r.Correct || r.Failed != 1 || r.Attempted != 2 {
		t.Fatalf("known defect: got %+v", r)
	}
	ops = append(ops, Op{Instance: "b", Class: classWrong, Check: checkCost})
	if r := finish(out, cfg, "w", ops, Metrics{}, nil); r.Correct || r.Failed != 2 {
		t.Fatalf("unexpected wrong answer: got %+v", r)
	}
	// A known defect failing a different check is not the known defect.
	ops = []Op{{Instance: "a", Class: classWrong, Check: checkCost}}
	if r := finish(out, cfg, "w", ops, Metrics{}, nil); r.Correct {
		t.Fatalf("known instance, other check: got %+v", r)
	}
}

func TestWorkloadsJSON(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(cfg.KnownDefects, cfg.TimeLimited...) {
		found := false
		for _, in := range cfg.Zoo[d.Workload].Instances {
			found = found || in.Name() == d.Instance
		}
		if !found {
			t.Errorf("%s names %s, which %s does not run", d.Note, d.Instance, d.Workload)
		}
	}
	for name, sw := range cfg.Service {
		if sw.Warm.ZipfS <= 1 || len(sw.Models)*len(sw.Warm.Fractions) < 2 || sw.Fresh.Every < 1 {
			t.Errorf("%s: zipf s %g over %d×%d warm keys, fresh every %d", name, sw.Warm.ZipfS, len(sw.Models), len(sw.Warm.Fractions), sw.Fresh.Every)
		}
	}
	names := make(map[string]bool)
	for _, nu := range perLayerNames {
		names[nu[0]] = true
	}
	for w, list := range cfg.ExactCounts {
		for _, n := range list {
			if !names[n] {
				t.Errorf("exact count %v of %s is not a per-layer metric", n, w)
			}
		}
	}
}
