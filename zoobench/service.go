package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/checkmate"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/service/api"
	"repro/internal/telemetry"
)

// svcKey names one (model, budget) the mix requests.
type svcKey struct {
	model  string
	budget int64
}

// svcReq is one scheduled request of the open-loop mix.
type svcReq struct {
	due   time.Duration // offset from the start of the load phase
	part  string        // warm or fresh
	key   svcKey
	name  string
	body  []byte
	limit time.Duration // the request's solve time limit
}

// svcEnv is a running planner with its references and request schedule.
type svcEnv struct {
	srv  *service.Server
	http *http.Server
	url  string
	dir  string
	refs map[svcKey]Reference
	reqs []svcReq
}

// close stops the planner and removes its store directory.
func (e *svcEnv) close() {
	if e == nil {
		return
	}
	if e.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.http.Shutdown(ctx) // a late shutdown only delays exit
		cancel()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// quietLogger drops the planner's operational logs.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// startServer starts one planner on a loopback port over the store in dir.
func startServer(sw ServiceWorkload, dir string) (*service.Server, *http.Server, string, error) {
	srv, err := service.New(service.Config{
		Workers:     sw.Workers,
		CacheCap:    sw.CacheCap,
		CacheShards: sw.CacheShards,
		CacheDir:    dir,
		Logger:      quietLogger,
	})
	if err != nil {
		return nil, nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on Shutdown
	return srv, hs, "http://" + ln.Addr().String(), nil
}

// solveBody encodes a /v1/solve request.
func solveBody(cfg *Config, sw ServiceWorkload, k svcKey, method string, limitS float64) []byte {
	b, _ := json.Marshal(api.SolveRequest{ // a plain struct always encodes
		Model: k.model, Batch: cfg.Batch, Device: cfg.Device, CoarseSegments: sw.Segments,
		Budget: k.budget, Method: method, TimeLimitMS: int64(limitS * 1000), RelGap: cfg.RelGap,
	})
	return b
}

// setupService builds references for every key of the mix, fills a disk
// store through a first planner, and starts the measured planner on it.
func setupService(ctx context.Context, cfg *Config, sw ServiceWorkload, seed int64, seconds float64) (*svcEnv, time.Duration, error) {
	l := &loader{cfg: cfg}
	env := &svcEnv{refs: make(map[svcKey]Reference)}
	lo := make(map[string]int64)
	hi := make(map[string]int64)
	refs := make(map[string]*checkmate.Workload)
	for _, m := range sw.Models {
		// The planner builds its own workloads; the benchmark loads each
		// model once, as the verifier's reference.
		r, err := l.load(m, sw.Segments)
		if err != nil {
			return nil, 0, err
		}
		lo[m], hi[m] = r.MinBudget(), r.CheckpointAllPeak()
		refs[m] = r
	}
	at := func(m string, f float64) svcKey { return svcKey{m, lo[m] + int64(f*float64(hi[m]-lo[m]))} }

	// The warm keys, ranked fraction-major: the first fraction of every
	// model heads the zipf order.
	var warm []svcKey
	for _, f := range sw.Warm.Fractions {
		for _, m := range sw.Models {
			warm = append(warm, at(m, f))
		}
	}
	// The fresh keys, one per fresh request: every model at evenly spaced
	// fractions of [FractionMin, FractionMax], in an order the seed
	// shuffles. Every seed asks the same solves, so seeds differ in order
	// and in the warm draws, not in solver work.
	rng := rand.New(rand.NewSource(seed))
	n := int(sw.RateRPS * seconds)
	nFresh := n / sw.Fresh.Every
	perModel := (nFresh + len(sw.Models) - 1) / len(sw.Models)
	var fresh []svcKey
	for j := 0; j < nFresh; j++ {
		f := sw.Fresh.FractionMin + (float64(j/len(sw.Models))+0.5)/float64(perModel)*(sw.Fresh.FractionMax-sw.Fresh.FractionMin)
		fresh = append(fresh, at(sw.Models[j%len(sw.Models)], f))
	}
	rng.Shuffle(len(fresh), func(a, b int) { fresh[a], fresh[b] = fresh[b], fresh[a] })
	// The request schedule: evenly spaced, every Fresh.Every-th request
	// fresh, the rest a zipf draw over the warm keys.
	zipf := rand.NewZipf(rng, sw.Warm.ZipfS, 1, uint64(len(warm)-1))
	for i := 0; i < n; i++ {
		r := svcReq{due: time.Duration(float64(i) / sw.RateRPS * float64(time.Second))}
		switch {
		case i%sw.Fresh.Every == sw.Fresh.Every-1:
			r.part, r.key = "fresh", fresh[i/sw.Fresh.Every]
			r.body, r.limit = solveBody(cfg, sw, r.key, sw.Fresh.Method, sw.Fresh.TimeLimitS), secs(sw.Fresh.TimeLimitS)
		default:
			r.part, r.key = "warm", warm[zipf.Uint64()]
			r.body, r.limit = solveBody(cfg, sw, r.key, sw.Warm.Method, sw.Warm.TimeLimitS), secs(sw.Warm.TimeLimitS)
		}
		r.name = fmt.Sprintf("%s:%s/%d/%d", r.part, r.key.model, sw.Segments, r.key.budget)
		env.reqs = append(env.reqs, r)
	}

	// References: the benchmark's own graph and the cheapest feasible
	// baseline for every key the mix can ask for.
	for _, r := range env.reqs {
		if _, ok := env.refs[r.key]; ok {
			continue
		}
		ref := refs[r.key.model]
		base, err := cheapestBaseline(ctx, ref, ref.Graph, ref.Overhead, r.key.budget)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", r.name, err)
		}
		env.refs[r.key] = Reference{Graph: ref.Graph, Overhead: ref.Overhead, Baseline: base, RelGap: cfg.RelGap}
	}

	// Fill the store through a first planner, then serve from a second one
	// on the same directory: memory starts empty, the disk holds every
	// warm key.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(".bench_build", "store-")
	if err != nil {
		return nil, 0, err
	}
	env.dir = dir
	srv, hs, url, err := startServer(sw, dir)
	if err != nil {
		env.close()
		return nil, 0, err
	}
	warmEnv := &svcEnv{srv: srv, http: hs}
	client := &http.Client{Timeout: 30 * time.Second}
	for _, k := range warm {
		limit := sw.Warm.TimeLimitS
		if _, _, err := post(ctx, client, url+"/v1/solve", solveBody(cfg, sw, k, sw.Warm.Method, limit)); err != nil {
			warmEnv.close()
			env.close()
			return nil, 0, fmt.Errorf("prewarm %s/%d: %w", k.model, k.budget, err)
		}
	}
	warmEnv.close()
	client.CloseIdleConnections()
	if env.srv, env.http, env.url, err = startServer(sw, dir); err != nil {
		env.close()
		return nil, 0, err
	}
	return env, l.loadNS, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// post sends a JSON body and returns the status and response body; a
// non-200 status is an error here.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, b, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return resp.StatusCode, b, nil
}

// getJSON fetches url into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// reply is one request's raw outcome.
type reply struct {
	status int
	body   []byte
	err    error
	sent   time.Duration // actual send, offset from phase start
	done   time.Duration
}

// loadPhase is the outcome of driving the mix once.
type loadPhase struct {
	ops        []Op
	makespan   time.Duration
	lagMax     time.Duration
	queueMax   int
	before     api.StatsResponse
	after      api.StatsResponse
	verify     time.Duration
	stmts      int
	hitMS      []float64
	solveMS    []float64
	overheadMS []float64
	self       map[string]time.Duration
}

// drive sends env.reqs open-loop over sw.Connections connections, each
// request timed from its due time. With tr non-nil, every request runs in a
// benchmark span and the server's span tree of every cold solve is fetched
// and folded into self times.
func drive(ctx context.Context, sw ServiceWorkload, env *svcEnv, tr *telemetry.Trace) (*loadPhase, error) {
	conns := sw.Connections
	tp := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp, Timeout: 60 * time.Second}
	side := &http.Client{Timeout: 10 * time.Second}
	defer side.CloseIdleConnections()

	p := &loadPhase{self: make(map[string]time.Duration)}
	if err := getJSON(ctx, side, env.url+"/v1/stats", &p.before); err != nil {
		return nil, err
	}
	if tr != nil {
		ctx = telemetry.WithTrace(ctx, tr)
	}
	replies := make([]reply, len(env.reqs))
	queue := make(chan int, len(env.reqs))        // sized to the sends: the scheduler never blocks
	traceKeys := make(chan string, len(env.reqs)) // at most one per request: senders never block
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				rctx, span := telemetry.StartSpan(ctx, "bench.request", telemetry.A("req", env.reqs[i].name))
				rp := &replies[i]
				rp.sent = time.Since(start)
				rp.status, rp.body, rp.err = post(rctx, client, env.url+"/v1/solve", env.reqs[i].body)
				rp.done = time.Since(start)
				span.End()
				if tr != nil && rp.err == nil {
					var sr api.SolveResponse
					if json.Unmarshal(rp.body, &sr) == nil && !sr.Cached {
						traceKeys <- sr.Fingerprint
					}
				}
			}
		}()
	}
	// The side channel samples queue depth and fetches solve traces without
	// taking a load connection.
	stop := make(chan struct{})
	var sideWG sync.WaitGroup
	sideWG.Add(1)
	go func() {
		defer sideWG.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case k := <-traceKeys:
				p.foldTrace(ctx, side, env.url, k)
			case <-tick.C:
				var st api.StatsResponse
				if getJSON(ctx, side, env.url+"/v1/stats", &st) == nil && st.QueueDepth > p.queueMax {
					p.queueMax = st.QueueDepth
				}
			}
		}
	}()
	for i, r := range env.reqs {
		if d := time.Until(start.Add(r.due)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if lag := time.Since(start) - r.due; lag > p.lagMax {
			p.lagMax = lag
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	p.makespan = time.Since(start)
	close(stop)
	sideWG.Wait()
	for len(traceKeys) > 0 {
		p.foldTrace(ctx, side, env.url, <-traceKeys)
	}
	if err := getJSON(ctx, side, env.url+"/v1/stats", &p.after); err != nil {
		return nil, err
	}
	p.judge(sw, env, replies)
	return p, nil
}

// judge verifies every reply against the benchmark's references.
func (p *loadPhase) judge(sw ServiceWorkload, env *svcEnv, replies []reply) {
	limit := time.Duration(sw.LatencyLimitMS * float64(time.Millisecond))
	for i, rp := range replies {
		r := env.reqs[i]
		op := Op{Instance: r.name, Latency: rp.done - r.due, Limit: limit}
		switch {
		case rp.err != nil && rp.status == http.StatusUnprocessableEntity:
			// The mix asks only optimal and interval solves, whose 422 is a
			// claim that no schedule fits.
			op.Class, op.Check, op.Detail = classRefused, "http_422", rp.err.Error()
			if verr := VerifyInfeasible(env.refs[r.key]); verr != nil {
				op.Class, op.Check, op.Detail = verdict(verr)
			}
		case rp.err != nil && (rp.status == http.StatusServiceUnavailable || rp.status == http.StatusGatewayTimeout):
			op.Class, op.Check, op.Detail = classRefused, fmt.Sprintf("http_%d", rp.status), rp.err.Error()
		case rp.err != nil:
			op.Class, op.Check, op.Detail = classError, "http", rp.err.Error()
		default:
			v0 := time.Now()
			var sr api.SolveResponse
			stmts, verr := verifyReply(env.refs[r.key], r.key.budget, rp.body, &sr)
			op.Class, op.Check, op.Detail = verdict(verr)
			p.verify += time.Since(v0)
			op.RanSolve = !sr.Cached
			if op.RanSolve {
				p.stmts += stmts
				op.SolveTime = time.Duration(sr.SolveMS * float64(time.Millisecond))
				p.solveMS = append(p.solveMS, sr.SolveMS)
				p.overheadMS = append(p.overheadMS, ms(rp.done-rp.sent)-sr.SolveMS)
				op.AtLimit = op.SolveTime >= r.limit
			} else {
				p.hitMS = append(p.hitMS, ms(op.Latency))
			}
			if op.Class == classOK {
				op.Overhead = sr.Cost / sr.IdealCost
			}
		}
		p.ops = append(p.ops, op)
	}
}

// verifyReply decodes a /v1/solve answer and its plan, verifies it, and
// returns the plan's statement count.
func verifyReply(ref Reference, budget int64, body []byte, sr *api.SolveResponse) (int, error) {
	if err := json.Unmarshal(body, sr); err != nil {
		return 0, fmt.Errorf("decode response: %w", err)
	}
	if sr.Budget != budget {
		return 0, &CheckError{Check: checkBudget, Detail: fmt.Sprintf("answered budget %d, asked %d", sr.Budget, budget)}
	}
	plan, err := schedule.ReadPlanJSON(bytes.NewReader(sr.Plan))
	if err != nil {
		return 0, &CheckError{Check: checkReplay, Detail: err.Error()}
	}
	return len(plan.Stmts), Verify(ref, Answer{Plan: plan, Budget: budget, Cost: sr.Cost, IdealCost: sr.IdealCost, PeakBytes: sr.PeakBytes, Optimal: sr.Optimal})
}

// chromeTrace is the part of the server's trace_event JSON the benchmark
// reads.
type chromeTrace struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		TID  int     `json:"tid"`
	} `json:"traceEvents"`
}

// foldTrace fetches the server's span tree of one cold solve and adds its
// per-span self times to p.self. A trace the server no longer retains is
// skipped.
func (p *loadPhase) foldTrace(ctx context.Context, c *http.Client, base, key string) {
	var ct chromeTrace
	if getJSON(ctx, c, base+"/v1/solve/trace?key="+key, &ct) != nil {
		return
	}
	for name, d := range chromeSelfTimes(ct) {
		p.self[name] += d
	}
}

// chromeSelfTimes computes each span name's self time from complete ("X")
// events: a span's duration minus that of the spans directly nested in it
// on the same lane.
func chromeSelfTimes(ct chromeTrace) map[string]time.Duration {
	type ev struct {
		name       string
		start, end float64
		child      float64
	}
	lanes := make(map[int][]*ev)
	for _, e := range ct.TraceEvents {
		if e.Ph == "X" {
			lanes[e.TID] = append(lanes[e.TID], &ev{name: e.Name, start: e.TS, end: e.TS + e.Dur})
		}
	}
	out := make(map[string]time.Duration)
	for _, evs := range lanes {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].start != evs[j].start {
				return evs[i].start < evs[j].start
			}
			return evs[i].end > evs[j].end
		})
		var stack []*ev
		for _, e := range evs {
			for len(stack) > 0 && stack[len(stack)-1].end <= e.start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				stack[len(stack)-1].child += e.end - e.start
			}
			stack = append(stack, e)
		}
		for _, e := range evs {
			self := math.Max(0, e.end-e.start-e.child)
			out[e.name] += time.Duration(self * float64(time.Microsecond))
		}
	}
	return out
}

// serviceLayers turns a load phase into per-layer metrics.
func serviceLayers(p *loadPhase, loadNS time.Duration) map[string]float64 {
	v := make(map[string]float64)
	layerTimes(v, p.self)
	b, a := p.before, p.after
	v["nets.load_ms"] = ms(loadNS)
	v["service.solve_ms_p50"] = quantile(p.solveMS, 0.5)
	v["service.overhead_p50_ms"] = quantile(p.overheadMS, 0.5)
	v["cache.hits"] = float64(a.CacheHits - b.CacheHits)
	v["cache.misses"] = float64(a.CacheMisses - b.CacheMisses)
	v["cache.evictions"] = float64(a.CacheEvictions - b.CacheEvictions)
	v["cache.hit_ratio"] = ratio(v["cache.hits"], v["cache.hits"]+v["cache.misses"])
	v["cache.hit_p50_ms"] = quantile(p.hitMS, 0.5)
	if a.Store != nil && b.Store != nil {
		v["store.hits"] = float64(a.Store.Hits - b.Store.Hits)
		v["store.misses"] = float64(a.Store.Misses - b.Store.Misses)
		v["store.writes"] = float64(a.Store.Puts - b.Store.Puts)
	}
	v["pool.solves"] = float64(a.Solves - b.Solves)
	v["pool.deduped"] = float64(a.Deduped - b.Deduped)
	v["pool.queue_depth_max"] = float64(p.queueMax)
	v["admission.rejected"] = float64(a.Admission.Rejected - b.Admission.Rejected)
	v["milp.nodes"] = float64(a.Solver.Nodes - b.Solver.Nodes)
	v["milp.simplex_iters"] = float64(a.Solver.SimplexIters - b.Solver.SimplexIters)
	v["milp.dual_iters"] = float64(a.Solver.DualIters - b.Solver.DualIters)
	v["milp.probe_iters"] = float64(a.Solver.ProbeIters - b.Solver.ProbeIters)
	hits, misses := float64(a.Solver.WarmHits-b.Solver.WarmHits), float64(a.Solver.WarmMisses-b.Solver.WarmMisses)
	v["milp.warm_hit_ratio"] = ratio(hits, hits+misses)
	v["schedule.stmts"] = float64(p.stmts)
	v["loadgen.lag_max_ms"] = ms(p.lagMax)
	v["bench.verify_ms"] = ms(p.verify)
	return v
}

// runServiceWorkload is one run of the service workload: repeated set-up,
// one untraced load phase for the end-to-end metrics and, when traced, a
// second phase against a freshly set-up planner under a span trace. The
// operations of both phases are returned, so every verified answer counts.
func runServiceWorkload(ctx context.Context, cfg *Config, name string, sw ServiceWorkload, seed int64, seconds float64, traced bool) (Metrics, []Op, []string, error) {
	var (
		env    *svcEnv
		loadNS time.Duration
		setups []float64
	)
	defer func() { env.close() }()
	t0 := processStart
	for r := 0; r < setupRepeats; r++ {
		env.close()
		var err error
		if env, loadNS, err = setupService(ctx, cfg, sw, seed, seconds); err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, float64(time.Since(t0)))
		t0 = time.Now()
	}
	plain, err := drive(ctx, sw, env, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	v := serviceLayers(plain, loadNS)
	counts := exactCounts(cfg, name, v)
	if !traced {
		return endToEnd(plain.ops, time.Duration(quantile(setups, 0.5)), plain.makespan), plain.ops, counts, nil
	}
	env.close()
	if env, _, err = setupService(ctx, cfg, sw, seed, seconds); err != nil {
		return nil, nil, nil, err
	}
	tr := telemetry.NewTrace()
	tp, err := drive(ctx, sw, env, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	if got := exactCounts(cfg, name, serviceLayers(tp, loadNS)); fmt.Sprint(got) != fmt.Sprint(counts) {
		counts = append(counts, "MISMATCH traced phase: "+fmt.Sprint(got))
	}
	layerTimes(v, tp.self)
	v["bench.verify_ms"] = ms(tp.verify)
	v["trace.overhead_frac"] = sumLatency(tp.ops)/sumLatency(plain.ops) - 1
	return perLayer(v), append(plain.ops, tp.ops...), counts, nil
}

func sumLatency(ops []Op) float64 {
	var s float64
	for _, op := range ops {
		s += op.Latency.Seconds()
	}
	return s
}
