package service

import (
	"testing"
	"time"

	"repro/checkmate"
	"repro/internal/service/api"
)

// TestCacheKeyGolden pins the service's cache keys byte for byte. Keys name
// entries in the persistent store, so a key that moves orphans every schedule
// stored under it. The Optimal, Approx, Interval, Anytime and Auto digests
// were recorded from the service before Request.Key became its only key
// function; the Baseline digests are Request.Key's "baseline/v1" domain,
// which keeps heuristic schedules out of the optimal entries.
func TestCacheKeyGolden(t *testing.T) {
	cases := []struct {
		method  string
		nodes   int
		budget  int64
		limitMS int64
		relGap  float64
		threads int
		key     string
	}{
		{"", 40, 21, 0, 0, 0, "e3b68b730178aeddf94bb6f722b4a8ab1a2b5cdce07e2c57a38c8796fba8d0a3"},
		{"optimal", 40, 21, 0, 0, 0, "e3b68b730178aeddf94bb6f722b4a8ab1a2b5cdce07e2c57a38c8796fba8d0a3"},
		{"optimal", 40, 21, 5000, 0.05, 0, "47b6a24dde4bf23b0f0c98c851a011a347fd5fb4d96d5af30c760dc2c3ba8fdf"},
		{"approx", 40, 21, 0, 0, 0, "9408012327bf4c0c39a1daa1768d063aa658e027b5df0b55fbd0e1456e61ef17"},
		{"approx", 40, 21, 5000, 0.05, 0, "fa4009c982b9b32f948e534a282aa14d88ea83f53611091da319b0f845f66665"},
		{"interval", 40, 21, 0, 0, 0, "c03c253cfaad2ffe1ac4b44c9743aa77359bb5f2a53abbfb55a0b1b10acc7f57"},
		{"interval", 40, 21, 5000, 0.05, 0, "67de98fa793d26dfcb7db922f1f7ff93ca321a117ee9ad23605f3e2272bacd76"},
		{"anytime", 40, 21, 0, 0, 0, "a935bec73eafca24d4fdfae84ffa5e09b9ceb29b51fddc1cbfc93636efc256f9"},
		{"anytime", 40, 21, 5000, 0.05, 0, "141d0af867090df7bc6463894af695a1c4e1b45cba54a6d7aad9730362da41a9"},
		{"auto", 40, 21, 0, 0, 0, "e3b68b730178aeddf94bb6f722b4a8ab1a2b5cdce07e2c57a38c8796fba8d0a3"},
		{"auto", 100, 51, 0, 0, 0, "895e27c37518d33ca77cfe58d2694367d67adbbcdb5563b4bf8c484031beb5f4"},
		{"auto", 100, 2, 1, 0, 0, "3d6b2b8c2db12cea4dd8ff71365dfa9b9531ba98ab73a5834c1ee8650d930a0b"},
		{"baseline", 40, 21, 0, 0, 0, "d1a0c9101c8aa506b8e9f232c1215de01a05a1f41e1f34aa7b3dac0550e1681a"},
		{"baseline", 40, 21, 5000, 0.05, 0, "5e6653d17cb9ec501352aa3f4eba12efbefae042300d4c2295aeb234ea0d61cc"},
		{"", 40, 21, 0, 0, 4, "f47eb88bc5a6b2faeea6a37de3bacec32aeaa1add1f81e78a0c92c6c2c3e2f4e"},
		{"optimal", 40, 21, 0, 0, 4, "f47eb88bc5a6b2faeea6a37de3bacec32aeaa1add1f81e78a0c92c6c2c3e2f4e"},
		{"optimal", 40, 21, 5000, 0.05, 4, "def99c17a40507e2b141e0efb2ac2a56d9ee29fc5af7494c0a0ba56e76721ac3"},
		{"approx", 40, 21, 0, 0, 4, "9408012327bf4c0c39a1daa1768d063aa658e027b5df0b55fbd0e1456e61ef17"},
		{"approx", 40, 21, 5000, 0.05, 4, "fa4009c982b9b32f948e534a282aa14d88ea83f53611091da319b0f845f66665"},
		{"interval", 40, 21, 0, 0, 4, "c03c253cfaad2ffe1ac4b44c9743aa77359bb5f2a53abbfb55a0b1b10acc7f57"},
		{"interval", 40, 21, 5000, 0.05, 4, "67de98fa793d26dfcb7db922f1f7ff93ca321a117ee9ad23605f3e2272bacd76"},
		{"anytime", 40, 21, 0, 0, 4, "a6049d2809cdfa3d9e63e1593ec69236f075d553a0d2756ce6d9242884dc2c32"},
		{"anytime", 40, 21, 5000, 0.05, 4, "34fe45eacc158fc5f550bd8f385ca6e1744b26d305aac2d1410cde98180bda65"},
		{"auto", 40, 21, 0, 0, 4, "f47eb88bc5a6b2faeea6a37de3bacec32aeaa1add1f81e78a0c92c6c2c3e2f4e"},
		{"auto", 100, 51, 0, 0, 4, "895e27c37518d33ca77cfe58d2694367d67adbbcdb5563b4bf8c484031beb5f4"},
		{"auto", 100, 2, 1, 0, 4, "3e6ab0e90a721e366e09d019adda84ca3bdf79f8f79a96ca4e15899f41404fd2"},
		{"baseline", 40, 21, 0, 0, 4, "aa8d3405580f6bec43dd377ca85833c649256b4815110dcbea74bac592aab9bb"},
		{"baseline", 40, 21, 5000, 0.05, 4, "ca6bd9fa40447d9af1ff7d84cba1942146fd248f189f44f0347ac9933f95caf9"},
	}
	servers := map[int]*Server{}
	for _, tc := range cases {
		srv, ok := servers[tc.threads]
		if !ok {
			srv, _ = testServerCfg(t, Config{Workers: 1, QueueCap: 4, CacheCap: 4, DefaultTimeLimit: 20 * time.Second, SolveThreads: tc.threads})
			servers[tc.threads] = srv
		}
		creq, err := srv.solveRequest(tc.method, tc.budget, tc.limitMS, tc.relGap)
		if err != nil {
			t.Fatal(err)
		}
		if creq.Workload, err = buildTestWorkload(srv, chainSpec(tc.nodes)); err != nil {
			t.Fatal(err)
		}
		if got := creq.Key().String(); got != tc.key {
			t.Errorf("%q n=%d budget=%d limit=%dms gap=%v threads=%d: key %s, want %s",
				tc.method, tc.nodes, tc.budget, tc.limitMS, tc.relGap, tc.threads, got, tc.key)
		}
	}
}

// TestBaselineNeverServesOptimal: a heuristic schedule and the optimal one
// for the same instance live under different cache keys, so neither solve
// order lets one answer the other's request.
func TestBaselineNeverServesOptimal(t *testing.T) {
	wl, err := checkmate.Load("vgg16", checkmate.Options{Batch: 1, CoarseSegments: 6})
	if err != nil {
		t.Fatal(err)
	}
	budget := wl.CheckpointAllPeak()
	for _, order := range [][2]string{
		{string(checkmate.Baseline), string(checkmate.Optimal)},
		{string(checkmate.Optimal), string(checkmate.Baseline)},
	} {
		_, ts := testServer(t)
		solve := func(method string) *api.SolveResponse {
			t.Helper()
			resp, herr := postSolve(t, ts, api.SolveRequest{
				Model: "vgg16", Batch: 1, CoarseSegments: 6, Budget: budget, Method: method,
			})
			if herr != nil {
				t.Fatalf("%s solve: HTTP %d %s", method, herr.StatusCode, herr.Status)
			}
			return resp
		}
		first, second := solve(order[0]), solve(order[1])
		if second.Cached {
			t.Errorf("%s after %s: served from the cache", order[1], order[0])
		}
		if second.Method != order[1] {
			t.Errorf("%s after %s: method %q", order[1], order[0], second.Method)
		}
		if wantOptimal := order[1] == string(checkmate.Optimal); second.Optimal != wantOptimal {
			t.Errorf("%s after %s: optimal=%v, want %v", order[1], order[0], second.Optimal, wantOptimal)
		}
		if first.Fingerprint == second.Fingerprint {
			t.Errorf("%s and %s share the cache key %s", order[0], order[1], first.Fingerprint)
		}
	}
}
