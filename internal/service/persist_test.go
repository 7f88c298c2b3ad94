package service

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/checkmate"
	"repro/internal/service/api"
)

func persistentCfg(dir string) Config {
	return Config{Workers: 2, QueueCap: 16, CacheCap: 32, CacheDir: dir, DefaultTimeLimit: 20 * time.Second}
}

// lockedWriter serializes writes so a test can read the buffer while the
// server's slog handler is still writing from background goroutines.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestRestartServesSolvedScheduleFromDisk is the acceptance test of the
// persistent store: a restarted server pointed at the same cache directory
// must serve a previously solved workload from disk without re-running the
// solver.
func TestRestartServesSolvedScheduleFromDisk(t *testing.T) {
	dir := t.TempDir()
	req := api.SolveRequest{Graph: chainSpec(10), Budget: 6}

	srv1, ts1 := testServerCfg(t, persistentCfg(dir))
	first, errResp := postSolve(t, ts1, req)
	if errResp != nil {
		t.Fatalf("first solve: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
	if first.Cached {
		t.Fatalf("first-ever solve reported cached")
	}
	st := srv1.Stats()
	if st.Solves != 1 {
		t.Fatalf("solves = %d, want 1", st.Solves)
	}
	if st.Store == nil || st.Store.Puts != 1 {
		t.Fatalf("schedule was not written through to the store: %+v", st.Store)
	}
	ts1.Close()
	srv1.Close()

	// A fresh process: empty memory cache, same disk.
	srv2, ts2 := testServerCfg(t, persistentCfg(dir))
	second, errResp := postSolve(t, ts2, req)
	if errResp != nil {
		t.Fatalf("post-restart solve: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
	if !second.Cached {
		t.Fatalf("post-restart solve was not served from the persistent store")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatalf("fingerprint changed across restart: %s vs %s", second.Fingerprint, first.Fingerprint)
	}
	if string(second.Plan) != string(first.Plan) {
		t.Fatalf("restored plan differs from the solved plan")
	}
	st = srv2.Stats()
	if st.Solves != 0 {
		t.Fatalf("solver ran again after restart: solves = %d", st.Solves)
	}
	if st.Store.Hits != 1 {
		t.Fatalf("store hits = %d, want 1", st.Store.Hits)
	}

	// The disk hit must have repopulated the memory tier: a third request is
	// a memory hit, not another disk read.
	third, errResp := postSolve(t, ts2, req)
	if errResp != nil || !third.Cached {
		t.Fatalf("third solve: errResp=%v cached=%v", errResp, third != nil && third.Cached)
	}
	st = srv2.Stats()
	if st.Store.Hits != 1 {
		t.Fatalf("memory tier not repopulated: disk read again (hits=%d)", st.Store.Hits)
	}
	if st.CacheHits != 1 {
		t.Fatalf("memory cache hits = %d, want 1", st.CacheHits)
	}
}

// TestStoredSolverFieldStillLoads: responses stored before the "solver"
// alias was removed still carry it. Stored responses decode leniently, so
// such an entry is a store hit, not a re-solve.
func TestStoredSolverFieldStillLoads(t *testing.T) {
	dir := t.TempDir()
	req := api.SolveRequest{Graph: chainSpec(10), Budget: 6}
	srv1, ts1 := testServerCfg(t, persistentCfg(dir))
	first, errResp := postSolve(t, ts1, req)
	if errResp != nil {
		t.Fatalf("seed solve: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
	creq, err := srv1.solveRequest(req.Method, req.Budget, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if creq.Workload, err = buildTestWorkload(srv1, req.Graph); err != nil {
		t.Fatal(err)
	}
	key := creq.Key()
	payload, ok := srv1.store.Get(key)
	if !ok {
		t.Fatal("seed solve was not stored")
	}
	old := bytes.Replace(payload, []byte(`"method":"optimal",`), []byte(`"method":"optimal","solver":"optimal",`), 1)
	if bytes.Equal(old, payload) {
		t.Fatalf("stored payload has no method field to extend: %s", payload)
	}
	if err := srv1.store.Put(key, old); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.Close()

	srv2, ts2 := testServerCfg(t, persistentCfg(dir))
	second, errResp := postSolve(t, ts2, req)
	if errResp != nil {
		t.Fatalf("solve after restart: HTTP %d %s", errResp.StatusCode, errResp.Status)
	}
	if !second.Cached || string(second.Plan) != string(first.Plan) {
		t.Fatalf("entry with a solver field not served from the store: cached=%v", second.Cached)
	}
	if st := srv2.Stats(); st.Solves != 0 || st.Store.Hits != 1 {
		t.Fatalf("solves = %d, store hits = %d; want 0 and 1", st.Solves, st.Store.Hits)
	}
}

// TestCorruptStoreFilesAreSkippedNeverFatal mangles every stored entry in
// three different ways and verifies a restarted server starts cleanly, logs
// and skips the damage, and re-solves the request successfully.
func TestCorruptStoreFilesAreSkippedNeverFatal(t *testing.T) {
	for _, mode := range []string{"truncate", "garbage", "empty"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			req := api.SolveRequest{Graph: chainSpec(10), Budget: 6}

			srv1, ts1 := testServerCfg(t, persistentCfg(dir))
			if _, errResp := postSolve(t, ts1, req); errResp != nil {
				t.Fatalf("seed solve failed: HTTP %d", errResp.StatusCode)
			}
			ts1.Close()
			srv1.Close()

			entries, err := filepath.Glob(filepath.Join(dir, "??", "*.json"))
			if err != nil || len(entries) == 0 {
				t.Fatalf("no stored entries found: %v %v", entries, err)
			}
			for _, path := range entries {
				switch mode {
				case "truncate":
					raw, _ := os.ReadFile(path)
					os.WriteFile(path, raw[:len(raw)/3], 0o644)
				case "garbage":
					os.WriteFile(path, []byte("\x00\xffdefinitely not json"), 0o644)
				case "empty":
					os.WriteFile(path, nil, 0o644)
				}
			}

			// Startup over a damaged store must succeed.
			var mu sync.Mutex
			var logBuf bytes.Buffer
			cfg := persistentCfg(dir)
			cfg.Logger = slog.New(slog.NewTextHandler(lockedWriter{mu: &mu, w: &logBuf}, nil))
			srv2, err := New(cfg)
			if err != nil {
				t.Fatalf("startup failed on a corrupt store: %v", err)
			}
			ts2 := httptest.NewServer(srv2.Handler())
			t.Cleanup(func() {
				ts2.Close()
				srv2.Close()
			})

			resp, errResp := postSolve(t, ts2, req)
			if errResp != nil {
				t.Fatalf("request over corrupt store failed: HTTP %d %s", errResp.StatusCode, errResp.Status)
			}
			if resp.Cached {
				t.Fatalf("corrupt entry was served as a cache hit")
			}
			st := srv2.Stats()
			if st.Solves != 1 {
				t.Fatalf("solver did not re-run over the corrupt entry: solves=%d", st.Solves)
			}
			if st.Store.Corrupt == 0 {
				t.Fatalf("corruption not counted: %+v", st.Store)
			}
			mu.Lock()
			haveLog := strings.Contains(logBuf.String(), "corrupt")
			mu.Unlock()
			if !haveLog {
				t.Fatalf("corruption was not logged")
			}
			// The re-solve must have repaired the store: one more restart
			// serves from disk again.
			ts2.Close()
			srv2.Close()
			srv3, ts3 := testServerCfg(t, persistentCfg(dir))
			again, errResp := postSolve(t, ts3, req)
			if errResp != nil || !again.Cached {
				t.Fatalf("store not repaired after re-solve: errResp=%v", errResp)
			}
			if st := srv3.Stats(); st.Solves != 0 {
				t.Fatalf("solver ran after repair: %d", st.Solves)
			}
		})
	}
}

// TestNoCacheDirMeansNoStore confirms the persistent tier is strictly
// opt-in: without CacheDir, stats carry no store block and nothing is
// written outside the repo.
func TestNoCacheDirMeansNoStore(t *testing.T) {
	srv, ts := testServer(t)
	if _, errResp := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 6}); errResp != nil {
		t.Fatalf("solve failed: HTTP %d", errResp.StatusCode)
	}
	if st := srv.Stats(); st.Store != nil {
		t.Fatalf("store stats present without a cache dir: %+v", st.Store)
	}
}

// TestStatsExposeShardAndAdmissionCounters exercises the /v1/stats surface
// added with the sharded cache and admission control: per-shard hit, miss,
// and eviction counters must reconcile with the totals, and the admission
// block must reflect calibration.
func TestStatsExposeShardAndAdmissionCounters(t *testing.T) {
	cfg := Config{Workers: 2, QueueCap: 16, CacheCap: 4, CacheShards: 2, DefaultTimeLimit: 20 * time.Second}
	srv, ts := testServerCfg(t, cfg)

	// Six distinct keys through a 4-entry cache force evictions; one repeat
	// yields a hit.
	for b := int64(6); b < 12; b++ {
		if _, errResp := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: b}); errResp != nil {
			t.Fatalf("budget %d: HTTP %d %s", b, errResp.StatusCode, errResp.Status)
		}
	}
	if resp, errResp := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 11}); errResp != nil || !resp.Cached {
		t.Fatalf("repeat solve missed: %v", errResp)
	}

	st := srv.Stats()
	if len(st.CacheShards) != 2 {
		t.Fatalf("%d shard blocks, want 2", len(st.CacheShards))
	}
	var hits, misses, evictions int64
	var size int
	for _, sh := range st.CacheShards {
		hits += sh.Hits
		misses += sh.Misses
		evictions += sh.Evictions
		size += sh.Size
	}
	if hits != st.CacheHits || misses != st.CacheMisses || evictions != st.CacheEvictions || size != st.CacheSize {
		t.Fatalf("shard stats do not reconcile with totals: %+v vs %+v", st.CacheShards, st)
	}
	if st.CacheHits != 1 || st.CacheMisses != 6 {
		t.Fatalf("hits=%d misses=%d, want 1/6", st.CacheHits, st.CacheMisses)
	}
	// 6 distinct entries into capacity 4 ⇒ at least 2 evictions.
	if st.CacheEvictions < 2 {
		t.Fatalf("evictions = %d, want >= 2", st.CacheEvictions)
	}
	if st.CacheSize > 4 {
		t.Fatalf("cache size %d exceeds capacity 4", st.CacheSize)
	}

	// Admission: the auto limit is positive, all cost released after the
	// solves finished, and the calibrator saw every real solve.
	ad := st.Admission
	if ad.MaxOutstandingCost <= 0 {
		t.Fatalf("auto admission limit not set: %+v", ad)
	}
	if ad.OutstandingCost != 0 {
		t.Fatalf("outstanding cost %v after drain, want 0", ad.OutstandingCost)
	}
	if ad.Samples != st.Solves {
		t.Fatalf("calibration samples = %d, want %d (one per solve)", ad.Samples, st.Solves)
	}
	if ad.EstimateRatio <= 0 {
		t.Fatalf("estimate ratio %v not positive", ad.EstimateRatio)
	}
	if ad.Rejected != 0 {
		t.Fatalf("unexpected admission rejections: %d", ad.Rejected)
	}
}

// TestAdmissionControlShedsLoadOver503 drives the service with an admission
// limit so small that a second concurrent solve must be rejected with 503
// while a solve is in flight.
func TestAdmissionControlShedsLoadOver503(t *testing.T) {
	cfg := Config{Workers: 1, QueueCap: 16, CacheCap: 32, MaxOutstandingCost: 0.5, DefaultTimeLimit: 20 * time.Second}
	srv, ts := testServerCfg(t, cfg)

	// Occupy the pool with a blocking flight of cost 1: deterministic,
	// unlike racing a real solve's wall-clock.
	block := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := srv.pool.submit(context.Background(), "occupied", 1, func(ctx context.Context) (any, error) {
			<-block
			return nil, nil
		})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.pool.outstandingCost() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("occupying flight never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// Any solve estimate is >= 1, so outstanding (1) + estimate > 0.5: this
	// distinct request must be shed with 503.
	_, errResp := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 6})
	if errResp == nil {
		t.Fatalf("over-limit solve was admitted")
	}
	if errResp.StatusCode != 503 {
		t.Fatalf("HTTP %d, want 503", errResp.StatusCode)
	}
	if !strings.Contains(errResp.Status, "admission") {
		t.Fatalf("error does not name admission control: %s", errResp.Status)
	}
	if got := srv.pool.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("occupying flight failed: %v", err)
	}

	// With the pool drained the same request is admitted and solves.
	resp, errResp := postSolve(t, ts, api.SolveRequest{Graph: chainSpec(10), Budget: 6})
	if errResp != nil || resp == nil {
		t.Fatalf("post-drain solve failed: %v", errResp)
	}
}

// TestAdmissionCostCappedByTimeLimit: the solve-cost estimate itself is
// uncapped, so admission caps it at the request's time limit — the hard
// ceiling on the solver's work — both before and after calibration.
func TestAdmissionCostCappedByTimeLimit(t *testing.T) {
	srv, _ := testServer(t)
	wl, err := buildTestWorkload(srv, chainSpec(500))
	if err != nil {
		t.Fatal(err)
	}
	creq, err := srv.solveRequest(string(checkmate.Optimal), wl.MinBudget(), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	creq.Workload = wl
	if est := wl.EstimateSolveCostFor(creq); est <= 100 {
		t.Fatalf("estimate %v does not exceed the 100 ms limit; the cap goes untested", est)
	}
	raw, cost := srv.admissionCost(creq)
	if raw > 100 || cost > 100 {
		t.Fatalf("admission estimate %v / cost %v exceeds the 100 ms time-limit cap", raw, cost)
	}
	if raw < 1 {
		t.Fatalf("estimate %v below the floor of 1", raw)
	}
}
