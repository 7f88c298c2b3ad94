package checkmate

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func loadTest(t *testing.T, segments int) *Workload {
	t.Helper()
	wl, err := Load("linear32", Options{Batch: 2, CoarseSegments: segments})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// tightBudget returns a budget well under the checkpoint-all peak so the
// solver must actually search (and therefore stream incumbents).
func tightBudget(wl *Workload) int64 {
	peak := wl.CheckpointAllPeak()
	minB := wl.MinBudget()
	return minB + (peak-minB)/2
}

func TestSolveRequestValidation(t *testing.T) {
	wl := loadTest(t, 8)
	ctx := context.Background()
	cases := []struct {
		name string
		req  Request
	}{
		{"nil workload", Request{Budget: 1 << 30}},
		{"zero budget", Request{Workload: wl}},
		{"negative budget", Request{Workload: wl, Budget: -5}},
		{"unknown method", Request{Workload: wl, Budget: 1 << 30, Method: "quantum"}},
		{"sweep with approx", Request{Workload: wl, Budgets: []int64{1 << 30}, Method: Approx}},
		{"unknown baseline", Request{Workload: wl, Budget: 1 << 60, Method: Baseline, Baseline: "nope"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Solve(ctx, tc.req); err == nil {
				t.Fatalf("Solve accepted %+v", tc.req)
			}
		})
	}
}

// TestSolveEventOrdering: a budget-tight solve must deliver Started first,
// at least one Incumbent strictly before Done, and Done exactly once, last.
func TestSolveEventOrdering(t *testing.T) {
	wl := loadTest(t, 10)
	var events []Event
	sched, err := Solve(context.Background(), Request{
		Workload:         wl,
		Budget:           tightBudget(wl),
		TimeLimit:        30 * time.Second,
		RelGap:           0.05,
		ProgressInterval: -1, // lossless: ordering is the point
		Observer:         ObserverFunc(func(e Event) { events = append(events, e) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events for a budget-tight solve: %+v", len(events), events)
	}
	if events[0].Kind != EventStarted {
		t.Fatalf("first event %q, want started", events[0].Kind)
	}
	if events[0].Vars <= 0 || events[0].Rows <= 0 {
		t.Fatalf("started event missing MILP dimensions: %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Kind != EventDone {
		t.Fatalf("last event %q, want done", last.Kind)
	}
	if last.Schedule != sched || last.Err != nil {
		t.Fatalf("done event does not carry the returned schedule: %+v", last)
	}
	sawIncumbent := false
	lastObj := math.Inf(1)
	for _, e := range events[1 : len(events)-1] {
		switch e.Kind {
		case EventIncumbent:
			sawIncumbent = true
			if e.Objective > lastObj+1e-9 {
				t.Fatalf("incumbent objective regressed: %v after %v", e.Objective, lastObj)
			}
			lastObj = e.Objective
			if e.Overhead < 1-1e-9 {
				t.Fatalf("incumbent overhead %v < 1 is impossible", e.Overhead)
			}
		case EventBound, EventStarted:
		case EventDone:
			t.Fatal("done delivered before the end of the stream")
		}
	}
	if !sawIncumbent {
		t.Fatal("no incumbent event before done on a budget-tight solve")
	}
	// The final incumbent is the returned schedule.
	if math.Abs(lastObj-sched.Cost) > 1e-6*(1+sched.Cost) {
		t.Fatalf("last incumbent %v != final schedule cost %v", lastObj, sched.Cost)
	}
}

func TestSolveApproxHonorsTimeLimit(t *testing.T) {
	wl := loadTest(t, 10)
	start := time.Now()
	_, err := Solve(context.Background(), Request{
		Workload:  wl,
		Method:    Approx,
		Budget:    tightBudget(wl),
		TimeLimit: time.Nanosecond, // expires before any LP can finish
	})
	if err == nil {
		t.Fatal("nanosecond time limit produced a schedule")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded in the chain", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("approx ignored its time limit: took %v", el)
	}
	// With a sane limit the search completes and never claims optimality.
	sched, err := Solve(context.Background(), Request{
		Workload: wl, Method: Approx, Budget: wl.CheckpointAllPeak() * 3 / 4,
		TimeLimit: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Optimal {
		t.Fatal("approximation claims optimality")
	}
}

func TestSolveBaselineMethod(t *testing.T) {
	wl := loadTest(t, 8)
	peak := wl.CheckpointAllPeak()
	// checkpoint-all fits exactly at its own peak.
	sched, err := Solve(context.Background(), Request{
		Workload: wl, Method: Baseline, Budget: peak,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sched.PeakBytes > peak {
		t.Fatalf("checkpoint-all baseline peak %d over its own budget %d", sched.PeakBytes, peak)
	}
	if sched.Optimal {
		t.Fatal("baseline claims optimality")
	}
	// ...and not one byte under it.
	if _, err := Solve(context.Background(), Request{
		Workload: wl, Method: Baseline, Budget: peak - 1,
	}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("checkpoint-all one byte under its peak: err = %v, want ErrInfeasible", err)
	}
	// A sqrt(n) baseline must fit a budget checkpoint-all cannot.
	under := wl.MinBudget() + (peak-wl.MinBudget())*3/4
	if _, err := Solve(context.Background(), Request{
		Workload: wl, Method: Baseline, Baseline: "checkpoint-all", Budget: under,
	}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("checkpoint-all under its peak: err = %v, want ErrInfeasible", err)
	}
	ap, err := Solve(context.Background(), Request{
		Workload: wl, Method: Baseline, Baseline: "ap-sqrt(n)", Budget: under,
	})
	if err != nil {
		t.Fatalf("ap-sqrt(n) at %d: %v", under, err)
	}
	if ap.PeakBytes > under {
		t.Fatalf("baseline peak %d over budget %d", ap.PeakBytes, under)
	}
	if ap.Overhead() < 1 {
		t.Fatalf("baseline overhead %v < 1", ap.Overhead())
	}
}

// TestSolveSweepRequest: Request.Budgets streams one SweepPoint per budget
// and returns the smallest feasible budget's schedule.
func TestSolveSweepRequest(t *testing.T) {
	wl := loadTest(t, 6)
	peak := wl.CheckpointAllPeak()
	minB := wl.MinBudget()
	budgets := []int64{minB / 2, peak, minB + (peak-minB)/3}
	var pts []Event
	sched, err := Solve(context.Background(), Request{
		Workload: wl, Budgets: budgets, TimeLimit: 60 * time.Second,
		Observer: ObserverFunc(func(e Event) {
			if e.Kind == EventSweepPoint {
				pts = append(pts, e)
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(budgets) {
		t.Fatalf("%d sweep-point events for %d budgets", len(pts), len(budgets))
	}
	seen := map[int]bool{}
	for _, e := range pts {
		if e.Point == nil || e.Point.Budget != budgets[e.Index] {
			t.Fatalf("sweep-point event misaligned: %+v", e)
		}
		seen[e.Index] = true
	}
	if len(seen) != len(budgets) {
		t.Fatalf("sweep-point indices incomplete: %v", seen)
	}
	// Smallest feasible budget is budgets[2]; its schedule is the result.
	var smallest *SweepPoint
	for _, e := range pts {
		if e.Index == 2 {
			smallest = e.Point
		}
	}
	if smallest.Schedule == nil {
		t.Fatalf("budget %d unexpectedly infeasible: %v", budgets[2], smallest.Err)
	}
	if sched != smallest.Schedule {
		t.Fatalf("Solve returned %p, want smallest feasible budget's schedule %p", sched, smallest.Schedule)
	}
}

func TestSolveDoneEventOnError(t *testing.T) {
	wl := loadTest(t, 8)
	var last Event
	_, err := Solve(context.Background(), Request{
		Workload: wl, Budget: 1, TimeLimit: 10 * time.Second,
		Observer: ObserverFunc(func(e Event) { last = e }),
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if last.Kind != EventDone || !errors.Is(last.Err, ErrInfeasible) {
		t.Fatalf("terminal event on failure: %+v", last)
	}
}

func TestLoadRejectsUnknownDevice(t *testing.T) {
	_, err := Load("linear32", Options{Device: "h100"})
	if err == nil {
		t.Fatal("unknown device silently accepted")
	}
	for _, preset := range DevicePresets() {
		if !strings.Contains(err.Error(), preset) {
			t.Fatalf("device error %q does not list preset %q", err, preset)
		}
	}
	// FLOPs costing bypasses device presets entirely and must stay usable.
	if _, err := Load("linear32", Options{Device: "", FLOPsCost: true}); err != nil {
		t.Fatal(err)
	}
}

// TestRequestKeyDistinguishesMethods: cache keys must never collide across
// methods or baseline names — a heuristic schedule stored under the optimal
// key would silently serve the wrong plan.
func TestRequestKeyDistinguishesMethods(t *testing.T) {
	wl := loadTest(t, 8)
	const budget = 1 << 30
	keys := map[string]string{
		"optimal":   Request{Workload: wl, Budget: budget}.Key().String(),
		"approx":    Request{Workload: wl, Budget: budget, Method: Approx}.Key().String(),
		"baseline":  Request{Workload: wl, Budget: budget, Method: Baseline}.Key().String(),
		"ap-greedy": Request{Workload: wl, Budget: budget, Method: Baseline, Baseline: "ap-greedy"}.Key().String(),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision: %s and %s share %s", prev, name, k)
		}
		seen[k] = name
	}
	// The default baseline name and its explicit spelling are the same key.
	explicit := Request{Workload: wl, Budget: budget, Method: Baseline, Baseline: "checkpoint-all"}.Key().String()
	if explicit != keys["baseline"] {
		t.Fatalf("default baseline key %s != explicit checkpoint-all key %s", keys["baseline"], explicit)
	}
}
