package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/checkmate"
	"repro/internal/service/api"
	"repro/internal/service/fleet"
)

// fleetNode is one in-process fleet member: a Server plus the http.Server
// that exposes its Handler on a real TCP port (fleet probing and forwarding
// need real URLs, so httptest's single-server model does not fit).
type fleetNode struct {
	url  string
	addr string
	srv  *Server
	hs   *http.Server
	cfg  Config
}

// crash hard-stops the node: listener and in-flight connections die, the
// Server itself (pool, fleet prober) keeps running so the process-death
// simulation only affects the network face — which is all a peer can see.
func (n *fleetNode) crash() {
	n.hs.Close()
}

// serveOn binds cfg's server to addr and serves it. The caller owns cleanup.
func serveOn(t *testing.T, addr string, cfg Config) *fleetNode {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		t.Fatalf("listen %s: %v", addr, err)
	}
	n := &fleetNode{
		url:  "http://" + ln.Addr().String(),
		addr: ln.Addr().String(),
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		cfg:  cfg,
	}
	go n.hs.Serve(ln) //nolint:errcheck // ErrServerClosed on crash/cleanup
	t.Cleanup(func() {
		n.hs.Close()
		srv.Close()
	})
	return n
}

// fleetCluster starts size in-process fleet members on loopback ports.
// mutate, when non-nil, adjusts each member's Config before start (CacheDir,
// probe cadence, remote store).
func fleetCluster(t *testing.T, size int, mutate func(i int, cfg *Config)) []*fleetNode {
	t.Helper()
	// Reserve the ports first so every member's peer list is complete at
	// construction time (fleet membership is static).
	lns := make([]net.Listener, size)
	urls := make([]string, size)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*fleetNode, size)
	for i := range nodes {
		addr := lns[i].Addr().String()
		lns[i].Close()
		cfg := Config{
			Workers: 2, QueueCap: 32, CacheCap: 64,
			DefaultTimeLimit:      20 * time.Second,
			FleetSelf:             urls[i],
			FleetPeers:            urls,
			FleetProbeInterval:    25 * time.Millisecond,
			FleetProbeTimeout:     250 * time.Millisecond,
			FleetFailureThreshold: 2,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		nodes[i] = serveOn(t, addr, cfg)
	}
	return nodes
}

// solveAt posts one solve to node and decodes the result; a non-200 status
// comes back as the error.
func solveAt(node *fleetNode, req api.SolveRequest) (*api.SolveResponse, error) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(node.url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e api.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, e.Error)
	}
	var out api.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// solveOwnedBy searches chain-graph solves, over budgets and time limits,
// for one whose solve key the rendezvous hash assigns to nodes[want].
// Ownership is a pure function of (member URLs, key), so the test computes
// it exactly the way the fleet does. Each key misses with probability
// 1 - 1/len(nodes) ≤ 2/3, so on a 16-node chain the 40 keys searched all
// miss with probability below 1e-6.
func solveOwnedBy(t *testing.T, nodes []*fleetNode, spec *api.GraphSpec, want int) api.SolveRequest {
	t.Helper()
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}
	srv := nodes[0].srv
	wl, err := srv.buildWorkload(workloadSpec{graph: spec})
	if err != nil {
		t.Fatal(err)
	}
	for budget := int64(6); budget < int64(len(spec.Nodes)); budget++ {
		for limitMS := int64(20_000); limitMS < 24_000; limitMS += 1_000 {
			creq, err := srv.solveRequest(string(checkmate.Auto), budget, limitMS, 0)
			if err != nil {
				t.Fatal(err)
			}
			creq.Workload = wl
			if fleet.OwnerOf(urls, creq.Key().String()) == nodes[want].url {
				return api.SolveRequest{Graph: spec, Budget: budget, TimeLimitMS: limitMS}
			}
		}
	}
	t.Fatalf("no chain solve over budgets [6,%d) and time limits [20,24) s is owned by node %d", len(spec.Nodes), want)
	return api.SolveRequest{}
}

// waitUnhealthy polls node's fleet stats until the unhealthy-peer count
// reaches want.
func waitUnhealthy(t *testing.T, node *fleetNode, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := node.srv.Stats()
		if st.Fleet != nil && st.Fleet.Unhealthy == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := node.srv.Stats()
	t.Fatalf("fleet unhealthy count never reached %d; stats: %+v", want, st.Fleet)
}

// TestFleetDeterministicRouting: every entry point routes one solve key to
// the same rendezvous owner, so the fleet solves it exactly once no matter
// which member the client happened to dial.
func TestFleetDeterministicRouting(t *testing.T) {
	nodes := fleetCluster(t, 3, nil)
	spec := chainSpec(16)
	const ownerIdx = 2
	req := solveOwnedBy(t, nodes, spec, ownerIdx)

	for entry, n := range nodes {
		resp, err := solveAt(n, req)
		if err != nil {
			t.Fatalf("solve via node %d: %v", entry, err)
		}
		if resp.Degraded {
			t.Fatalf("solve via node %d degraded: %s", entry, resp.DegradedReason)
		}
	}
	var total int64
	for i, n := range nodes {
		st := n.srv.Stats()
		total += st.Solves
		if i == ownerIdx && st.Solves != 1 {
			t.Fatalf("owner solved %d times, want 1", st.Solves)
		}
		if i != ownerIdx && st.Solves != 0 {
			t.Fatalf("non-owner node %d solved %d times, want 0", i, st.Solves)
		}
	}
	if total != 1 {
		t.Fatalf("fleet-wide solves = %d, want 1 (single-flight across members)", total)
	}
	// Both non-owners forwarded at least once.
	for i, n := range nodes {
		if i == ownerIdx {
			continue
		}
		st := n.srv.Stats()
		if st.Fleet == nil || st.Fleet.Forwards == 0 {
			t.Fatalf("non-owner node %d reports no forwards", i)
		}
	}
}

// TestFleetOwnerCrashSolvesLocallyStamped: with the owner hard-down but not
// yet detected (probes effectively off), a non-owner's forward fails and the
// request is answered locally under the fleet_local degradation — a correct
// schedule, zero hard failures, the dedup loss recorded.
func TestFleetOwnerCrashSolvesLocallyStamped(t *testing.T) {
	nodes := fleetCluster(t, 3, func(i int, cfg *Config) {
		// Freeze health views: the crash must be discovered by the forward
		// path, the deterministic worst case.
		cfg.FleetProbeInterval = time.Hour
	})
	spec := chainSpec(16)
	const ownerIdx = 1
	req := solveOwnedBy(t, nodes, spec, ownerIdx)

	nodes[ownerIdx].crash()
	resp, err := solveAt(nodes[0], req)
	if err != nil {
		t.Fatalf("solve with owner down must still succeed: %v", err)
	}
	if !resp.Degraded || resp.DegradedCode != string(checkmate.DegradedFleetLocal) {
		t.Fatalf("response not stamped fleet_local: degraded=%v code=%q", resp.Degraded, resp.DegradedCode)
	}
	if len(resp.Plan) == 0 {
		t.Fatal("fleet_local response carries no plan")
	}
	st := nodes[0].srv.Stats()
	if st.Solves != 1 {
		t.Fatalf("entry node solved %d times, want 1 (local fallback)", st.Solves)
	}
	if st.Fleet == nil || st.Fleet.LocalFallbacks == 0 || st.Fleet.ForwardErrors == 0 {
		t.Fatalf("fleet stats missing the fallback: %+v", st.Fleet)
	}
	// One request, one lookup: the fallback solve does not consult the
	// cache the routing decision already missed in.
	if st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Fatalf("one fallback request counted %d cache misses and %d hits, want 1 and 0", st.CacheMisses, st.CacheHits)
	}
}

// TestFleetStreamCachedLocallyCountsOneHit: a fleet stream whose key this
// member already holds is served from its cache without relaying, and that
// one request counts one cache hit.
func TestFleetStreamCachedLocallyCountsOneHit(t *testing.T) {
	nodes := fleetCluster(t, 3, nil)
	spec := chainSpec(16)
	const ownerIdx = 1
	req := solveOwnedBy(t, nodes, spec, ownerIdx)

	// A forwarded blocking solve leaves the owner's answer in the entry
	// member's memory cache.
	if _, err := solveAt(nodes[0], req); err != nil {
		t.Fatal(err)
	}
	before := nodes[0].srv.Stats()

	raw, _ := json.Marshal(spec)
	q := url.Values{
		"graph":         {string(raw)},
		"budget":        {strconv.FormatInt(req.Budget, 10)},
		"time_limit_ms": {strconv.FormatInt(req.TimeLimitMS, 10)},
	}
	resp, err := http.Get(nodes[0].url + "/v1/solve/stream?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames, _ := readSSE(t, resp.Body)
	if len(frames) == 0 || frames[len(frames)-1].Event != api.StreamEventDone {
		t.Fatalf("stream ended without a done frame: %+v", frames)
	}
	var done api.StreamDone
	if err := json.Unmarshal(frames[len(frames)-1].Data, &done); err != nil {
		t.Fatal(err)
	}
	if done.Result == nil || !done.Result.Cached {
		t.Fatalf("locally cached stream not served from the cache: %+v", done)
	}
	after := nodes[0].srv.Stats()
	if hits := after.CacheHits - before.CacheHits; hits != 1 {
		t.Fatalf("one cached stream counted %d cache hits, want 1", hits)
	}
	if after.CacheMisses != before.CacheMisses || after.Solves != 0 {
		t.Fatalf("cached stream missed or solved: misses %d -> %d, solves %d",
			before.CacheMisses, after.CacheMisses, after.Solves)
	}
}

// TestFleetFailureDetectorMarksPeerDownAndHeals: probes demote a crashed
// peer within the failure threshold, ownership remaps so new solves for its
// keys are clean (no degradation), and a restart heals the peer back in.
func TestFleetFailureDetectorMarksPeerDownAndHeals(t *testing.T) {
	nodes := fleetCluster(t, 3, nil)
	spec := chainSpec(16)
	const victim = 2
	req := solveOwnedBy(t, nodes, spec, victim)

	nodes[victim].crash()
	waitUnhealthy(t, nodes[0], 1)

	// The victim's keys remap to the survivors: solving one now is routine,
	// not degraded.
	resp, err := solveAt(nodes[0], req)
	if err != nil {
		t.Fatalf("solve after demotion: %v", err)
	}
	if resp.Degraded {
		t.Fatalf("solve after demotion degraded: %s (ownership should have remapped)", resp.DegradedReason)
	}

	// Rebind the same address (the fleet's member list is static, so the
	// reborn process must come back at the same URL) and watch it heal.
	reborn := serveOn(t, nodes[victim].addr, nodes[victim].cfg)
	_ = reborn
	waitUnhealthy(t, nodes[0], 0)
}

// TestFleetRestartRejoinsViaRemoteStore: a member that loses its disk comes
// back empty, but its first solve for a previously-owned key is a remote
// corpus hit, not a re-solve — the fleet's solve-once economics survive
// member death.
func TestFleetRestartRejoinsViaRemoteStore(t *testing.T) {
	// The corpus host: a standalone server (not a fleet member) exposing its
	// store via StoreHandler, as the admin listener would in production.
	corpusSrv, err := New(Config{
		Workers: 1, CacheDir: t.TempDir(),
		DefaultTimeLimit: 20 * time.Second,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(corpusSrv.Close)
	corpusLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	corpusHS := &http.Server{Handler: corpusSrv.StoreHandler()}
	go corpusHS.Serve(corpusLn) //nolint:errcheck // closed at cleanup
	t.Cleanup(func() { corpusHS.Close() })
	corpusURL := "http://" + corpusLn.Addr().String()

	nodes := fleetCluster(t, 2, func(i int, cfg *Config) {
		cfg.CacheDir = t.TempDir()
		cfg.RemoteStoreURL = corpusURL
	})
	spec := chainSpec(16)
	const victim = 1
	req := solveOwnedBy(t, nodes, spec, victim)

	// Solve at the owner: write-through puts the schedule in its disk tier
	// AND the shared corpus before the response returns.
	first, err := solveAt(nodes[victim], req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first solve reported cached")
	}

	// Kill the member and resurrect it with a fresh, empty disk. The shared
	// default transport still pools a keep-alive connection to the dead
	// process; drop it so the next request dials the reborn one.
	nodes[victim].crash()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	cfg := nodes[victim].cfg
	cfg.CacheDir = t.TempDir()
	reborn := serveOn(t, nodes[victim].addr, cfg)

	again, err := solveAt(reborn, req)
	if err != nil {
		t.Fatalf("solve on reborn member: %v", err)
	}
	if !again.Cached {
		t.Fatal("reborn member re-solved a schedule the corpus already holds")
	}
	if again.Fingerprint != first.Fingerprint {
		t.Fatalf("fingerprints differ across restart: %s vs %s", again.Fingerprint, first.Fingerprint)
	}
	st := reborn.srv.Stats()
	if st.Solves != 0 {
		t.Fatalf("reborn member ran the solver %d times, want 0", st.Solves)
	}
	if st.Store == nil || st.Store.Remote == nil || st.Store.Remote.Hits == 0 {
		t.Fatalf("remote tier saw no hit: %+v", st.Store)
	}
}

// TestFleetChaosUnderLoad is the in-process mirror of the CI chaos gate:
// concurrent solves through the surviving entry points while one member is
// killed and restarted mid-load. Every request must succeed; fleet_local
// degradations are the allowed (and expected) partition artifact.
func TestFleetChaosUnderLoad(t *testing.T) {
	nodes := fleetCluster(t, 3, nil)
	spec := chainSpec(12)
	budgets := []int64{6, 7, 8, 9, 10, 11}

	const workers = 4
	const perWorker = 25
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
		degraded int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				entry := nodes[(w+i)%2] // only the two members that stay up
				resp, err := solveAt(entry, api.SolveRequest{
					Graph:  spec,
					Budget: budgets[(w*perWorker+i)%len(budgets)],
				})
				if err != nil {
					mu.Lock()
					failures = append(failures, err.Error())
					mu.Unlock()
					continue
				}
				if resp.Degraded && resp.DegradedCode == string(checkmate.DegradedFleetLocal) {
					mu.Lock()
					degraded++
					mu.Unlock()
				}
			}
		}(w)
	}

	// Mid-load chaos: kill member 2, let the detector notice, resurrect it.
	time.Sleep(50 * time.Millisecond)
	nodes[2].crash()
	waitUnhealthy(t, nodes[0], 1)
	reborn := serveOn(t, nodes[2].addr, nodes[2].cfg)
	_ = reborn

	wg.Wait()
	if len(failures) > 0 {
		t.Fatalf("%d/%d requests failed during chaos; first: %s",
			len(failures), workers*perWorker, failures[0])
	}
	// The reborn member must be healed from every survivor's point of view.
	waitUnhealthy(t, nodes[0], 0)
	waitUnhealthy(t, nodes[1], 0)
	t.Logf("chaos load: %d requests, 0 failures, %d fleet_local degradations", workers*perWorker, degraded)
}
