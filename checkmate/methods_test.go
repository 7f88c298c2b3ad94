package checkmate

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestMethodsRegistry: the registry is the single source of truth for the
// method surface — every method has a description, MethodNames mirrors it,
// and ValidMethod accepts exactly the registered names (plus empty, the
// server-default spelling).
func TestMethodsRegistry(t *testing.T) {
	infos := Methods()
	if len(infos) < 5 {
		t.Fatalf("Methods() lists %d methods, want at least optimal/approx/baseline/interval/auto", len(infos))
	}
	names := MethodNames()
	if len(names) != len(infos) {
		t.Fatalf("MethodNames() has %d entries, Methods() %d", len(names), len(infos))
	}
	want := map[Method]bool{Optimal: false, Approx: false, Baseline: false, Interval: false, Auto: false}
	for i, mi := range infos {
		if mi.Description == "" {
			t.Errorf("method %q has no description", mi.Method)
		}
		if string(mi.Method) != names[i] {
			t.Errorf("MethodNames()[%d] = %q, Methods()[%d] = %q", i, names[i], i, mi.Method)
		}
		if _, known := want[mi.Method]; known {
			want[mi.Method] = true
		}
		if !ValidMethod(mi.Method) {
			t.Errorf("registered method %q not ValidMethod", mi.Method)
		}
	}
	for m, seen := range want {
		if !seen {
			t.Errorf("method %q missing from Methods()", m)
		}
	}
	if !ValidMethod("") {
		t.Error("empty method (server default) must be valid")
	}
	if ValidMethod("quantum") {
		t.Error("unregistered method accepted")
	}
}

// TestAutoResolve: the Auto router picks the exact MILP while it is
// tractable and the interval method beyond the size threshold; sweeps are
// always exact. Resolve never returns Auto itself.
func TestAutoResolve(t *testing.T) {
	small := chainWorkload(t, AutoMethodThreshold/2)
	big := chainWorkload(t, AutoMethodThreshold+1)
	cases := []struct {
		name string
		req  Request
		want Method
	}{
		{"empty is optimal", Request{Workload: small}, Optimal},
		{"auto small", Request{Workload: small, Method: Auto}, Optimal},
		{"auto large", Request{Workload: big, Method: Auto}, Interval},
		{"auto sweep stays exact", Request{Workload: big, Method: Auto, Budgets: []int64{4, 8}}, Optimal},
		{"explicit wins", Request{Workload: big, Method: Approx}, Approx},
	}
	for _, tc := range cases {
		if got := tc.req.Resolve(); got != tc.want {
			t.Errorf("%s: resolved %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestAutoSolveKeyRouting: an Auto request's cache key equals the key of the
// method it resolves to, and rebuilding the workload from scratch — the
// same construction another process would run — produces byte-identical
// keys. Two replicas of the planning service must route one request to one
// cache entry.
func TestAutoSolveKeyRouting(t *testing.T) {
	for _, n := range []int{AutoMethodThreshold / 2, AutoMethodThreshold + 8} {
		wl := chainWorkload(t, n)
		req := Request{Workload: wl, Method: Auto, Budget: wl.MinBudget() + 2, TimeLimit: 30 * time.Second}
		auto := req.Key()
		resolved := req
		resolved.Method = req.Resolve()
		if got := resolved.Key(); got != auto {
			t.Fatalf("n=%d: Auto key %s != resolved %q key %s", n, auto, resolved.Method, got)
		}
		// A fresh workload built from the same graph is what another process
		// sees; the digest must not depend on construction order or identity.
		rebuilt := req
		rebuilt.Workload = chainWorkload(t, n)
		if got := rebuilt.Key(); got != auto {
			t.Fatalf("n=%d: rebuilt workload keyed %s, want %s", n, got, auto)
		}
	}
	// Interval keys are method-distinct: the interval space is a restriction
	// of the MILP's, so its schedules must never be served under exact keys.
	wl := chainWorkload(t, 12)
	req := Request{Workload: wl, Method: Interval, Budget: wl.MinBudget() + 2, TimeLimit: 30 * time.Second}
	exact := req
	exact.Method = Optimal
	if req.Key() == exact.Key() {
		t.Fatal("interval and optimal share a cache key")
	}
}

// TestSolveIntervalMethod: the interval method end-to-end through the
// unified Solve entry point — feasible schedule within budget, the Started
// event carries the interval LP dimensions, and the result is stamped with
// the method that ran.
func TestSolveIntervalMethod(t *testing.T) {
	wl := loadTest(t, 8)
	budget := tightBudget(wl)
	var started, incumbents int
	sched, err := Solve(context.Background(), Request{
		Workload: wl, Method: Interval, Budget: budget,
		TimeLimit: 30 * time.Second, ProgressInterval: -1,
		Observer: ObserverFunc(func(e Event) {
			switch e.Kind {
			case EventStarted:
				started++
				if e.Vars <= 0 || e.Rows <= 0 {
					t.Errorf("Started without LP dimensions: %d vars × %d rows", e.Vars, e.Rows)
				}
			case EventIncumbent:
				incumbents++
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Method != Interval {
		t.Fatalf("Schedule.Method = %q, want %q", sched.Method, Interval)
	}
	if sched.PeakBytes > budget {
		t.Fatalf("peak %d over budget %d", sched.PeakBytes, budget)
	}
	if err := sched.Sched.Validate(wl.Graph, true); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	if started != 1 || incumbents == 0 {
		t.Fatalf("events: %d started, %d incumbents", started, incumbents)
	}
}

// TestSolveAutoStampsResolvedMethod: an Auto solve reports the concrete
// method that ran, never "auto" — clients and the service response depend
// on the stamp to say what produced the plan.
func TestSolveAutoStampsResolvedMethod(t *testing.T) {
	wl := loadTest(t, 8)
	sched, err := Solve(context.Background(), Request{
		Workload: wl, Method: Auto, Budget: tightBudget(wl),
		TimeLimit: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Method == Auto || sched.Method == "" {
		t.Fatalf("Schedule.Method = %q, want a concrete method", sched.Method)
	}
	if !ValidMethod(sched.Method) {
		t.Fatalf("Schedule.Method = %q is not a registered method", sched.Method)
	}
}

// TestUnknownMethodErrorEnumerates: the validation error teaches the caller
// the legal spellings instead of just rejecting theirs.
func TestUnknownMethodErrorEnumerates(t *testing.T) {
	wl := loadTest(t, 8)
	_, err := Solve(context.Background(), Request{Workload: wl, Budget: 1 << 30, Method: "quantum"})
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	for _, name := range MethodNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not enumerate method %q", err, name)
		}
	}
}
