package api

import (
	"math"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// Stream URLs from the README and the verification notes: they must keep
// decoding, and they seed the fuzz corpora below.
const (
	readmeStreamQuery = "model=mobilenet&batch=8&budget=80000000"
	verifyStreamQuery = "model=mobilenet&batch=8&coarse_segments=10&budget=80000000&time_limit_ms=30000"
)

func TestParseSolveQuery(t *testing.T) {
	graph := &GraphSpec{Nodes: []NodeSpec{{Name: "a", Cost: 1, Mem: 2}, {Cost: 1, Mem: 1, Backward: true}}, Edges: [][2]int{{0, 1}}}
	cases := []struct {
		query string
		want  SolveRequest
	}{
		{readmeStreamQuery, SolveRequest{Model: "mobilenet", Batch: 8, Budget: 80000000}},
		{verifyStreamQuery, SolveRequest{Model: "mobilenet", Batch: 8, CoarseSegments: 10, Budget: 80000000, TimeLimitMS: 30000}},
		{"model=vgg16&device=tpu&budget=6&method=interval&rel_gap=0.05&no_cache=1",
			SolveRequest{Model: "vgg16", Device: "tpu", Budget: 6, Method: "interval", RelGap: 0.05, NoCache: true}},
		{"budget=6&no_cache=false&batch=&graph=" + url.QueryEscape(`{"nodes":[{"name":"a","cost":1,"mem":2},{"cost":1,"mem":1,"backward":true}],"edges":[[0,1]]}`),
			SolveRequest{Budget: 6, Graph: graph}},
	}
	for _, tc := range cases {
		q, err := url.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseSolveQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", tc.query, got, tc.want)
		}
	}
}

func TestParseSweepQuery(t *testing.T) {
	q, _ := url.ParseQuery("model=vgg16&batch=8&budgets=" + url.QueryEscape("300, 100,,200") + "&points=3&method=approx&time_limit_ms=500")
	got, err := ParseSweepQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	want := SweepRequest{Model: "vgg16", Batch: 8, Budgets: []int64{300, 100, 200}, Points: 3, Method: "approx", TimeLimitMS: 500}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
}

// TestParseQueryRejects: a malformed value names its parameter, and a
// parameter the request type does not have is an error.
func TestParseQueryRejects(t *testing.T) {
	cases := []struct {
		query, want string
		sweep       bool
	}{
		{"budget=6&solver=approx", `unknown parameter "solver"`, false},
		{"budgets=6&solver=approx", `unknown parameter "solver"`, true},
		{"budgets=6&budget=6", `unknown parameter "budget"`, true},
		{"budgets=6&no_cache=true", `unknown parameter "no_cache"`, true},
		{"budget=6&batch=x", "parameter batch:", false},
		{"budget=6&no_cache=maybe", "parameter no_cache:", false},
		{"budget=6&rel_gap=tight", "parameter rel_gap:", false},
		{"budget=6&graph=%7Bnope", "parameter graph:", false},
		{"budgets=6,x", `parameter budgets: "x"`, true},
	}
	for _, tc := range cases {
		q, _ := url.ParseQuery(tc.query)
		var err error
		if tc.sweep {
			_, err = ParseSweepQuery(q)
		} else {
			_, err = ParseSolveQuery(q)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err %v, want one containing %q", tc.query, err, tc.want)
		}
	}
}

// TestQueryNamesAreJSONTags: every field of both request types encodes
// under its JSON name.
func TestQueryNamesAreJSONTags(t *testing.T) {
	graph := &GraphSpec{Nodes: []NodeSpec{{Cost: 1, Mem: 1}}}
	solve, err := SolveRequest{Model: "m", Batch: 1, Device: "d", CoarseSegments: 1, Graph: graph,
		Budget: 1, Method: "x", TimeLimitMS: 1, RelGap: 1, NoCache: true}.Query()
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := SweepRequest{Model: "m", Batch: 1, Device: "d", CoarseSegments: 1, Graph: graph,
		Budgets: []int64{1}, Points: 1, Method: "x", TimeLimitMS: 1, RelGap: 1}.Query()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q url.Values
		v any
	}{{solve, SolveRequest{}}, {sweep, SweepRequest{}}} {
		typ := reflect.TypeOf(c.v)
		if len(c.q) != typ.NumField() {
			t.Fatalf("%s: %d parameters for %d fields: %v", typ, len(c.q), typ.NumField(), c.q)
		}
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if _, ok := c.q[name]; !ok {
				t.Fatalf("%s.%s not encoded as %q: %v", typ, typ.Field(i).Name, name, c.q)
			}
		}
	}
}

// FuzzParseSolveQuery: parsing either fails or yields a request that an
// encode/parse round trip returns unchanged.
func FuzzParseSolveQuery(f *testing.F) {
	f.Add(readmeStreamQuery)
	f.Add(verifyStreamQuery)
	f.Add("budget=6&no_cache=1&rel_gap=1e-3&method=auto&device=cpu&graph=" +
		url.QueryEscape(`{"nodes":[{"cost":1,"mem":1},{"cost":2,"mem":3}],"edges":[[0,1]],"overhead":4}`))
	f.Add("budget=6&solver=approx")
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		r, err := ParseSolveQuery(q)
		if err != nil {
			return
		}
		enc, err := r.Query()
		if err != nil {
			t.Fatalf("encoding parsed request %+v: %v", r, err)
		}
		back, err := ParseSolveQuery(enc)
		if err != nil {
			t.Fatalf("parsing encoded %q: %v", enc.Encode(), err)
		}
		if math.IsNaN(r.RelGap) && math.IsNaN(back.RelGap) {
			r.RelGap, back.RelGap = 0, 0
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("round trip through %q:\n got %+v\nwant %+v", enc.Encode(), back, r)
		}
	})
}

// FuzzParseSweepQuery is FuzzParseSolveQuery for sweep requests.
func FuzzParseSweepQuery(f *testing.F) {
	f.Add("model=mobilenet&batch=8&points=5")
	f.Add("model=vgg16&budgets=" + url.QueryEscape("1,2, 3,,") + "&method=approx&rel_gap=0.5&time_limit_ms=100")
	f.Add("budgets=6&solver=approx")
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		r, err := ParseSweepQuery(q)
		if err != nil {
			return
		}
		enc, err := r.Query()
		if err != nil {
			t.Fatalf("encoding parsed request %+v: %v", r, err)
		}
		back, err := ParseSweepQuery(enc)
		if err != nil {
			t.Fatalf("parsing encoded %q: %v", enc.Encode(), err)
		}
		if math.IsNaN(r.RelGap) && math.IsNaN(back.RelGap) {
			r.RelGap, back.RelGap = 0, 0
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("round trip through %q:\n got %+v\nwant %+v", enc.Encode(), back, r)
		}
	})
}
