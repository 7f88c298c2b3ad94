// Command checkmate-load replays a heavy traffic mix — zipf-keyed solves,
// sweeps, and SSE streams — against a planning service (one server or a
// fleet) and writes a benchmark summary to BENCH_service.json: latency
// percentiles, cache hit rates, shed rate, and degraded-by-code counts.
//
// It is the fleet's chaos gate: run it against three planners, kill one
// mid-run, and assert zero hard failures (degraded answers allowed) —
// see docs/fleet.md and the fleet-smoke CI job.
//
// Example:
//
//	checkmate-load -targets http://127.0.0.1:8780,http://127.0.0.1:8781 \
//	    -duration 10s -concurrency 8 -keys 40 -min-success 1.0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/checkmate"
	"repro/internal/service/api"
	"repro/internal/service/client"
)

func main() {
	var (
		targets     = flag.String("targets", "http://127.0.0.1:8780", "comma-separated service base URLs; multiple = client-side failover across a fleet")
		duration    = flag.Duration("duration", 10*time.Second, "load window; in-flight requests finish after it closes")
		concurrency = flag.Int("concurrency", 8, "concurrent request loops")
		keys        = flag.Int("keys", 40, "distinct solve keys (budgets) in the working set")
		zipfS       = flag.Float64("zipf", 1.2, "zipf skew over the key space (>1; larger = hotter head)")
		mix         = flag.String("mix", "solve=70,stream=15,sweep=15", "traffic mix as kind=weight pairs (kinds: solve, stream, sweep)")
		model       = flag.String("model", "vgg16", "zoo model solved by every request")
		batch       = flag.Int("batch", 4, "batch size")
		device      = flag.String("device", "v100", "cost model device")
		segments    = flag.Int("segments", 8, "coarse block count (small = fast solves)")
		method      = flag.String("method", "approx", "solver method for every request (approx keeps the harness fast)")
		budgetFloor = flag.Float64("budget-floor", 0.5, "lowest key budget as a fraction of the schedulable range; keeps keys feasible for the approx rounding (0 = the theoretical minimum, where approx legitimately 422s)")
		timeLimit   = flag.Duration("timelimit", 5*time.Second, "per-solve time limit sent with every request")
		reqTimeout  = flag.Duration("request-timeout", 60*time.Second, "client-side deadline per request")
		retries     = flag.Int("retries", 4, "client retry attempts per request (failover rotates targets between attempts)")
		seed        = flag.Int64("seed", 1, "deterministic key/mix sampling seed")
		out         = flag.String("out", "BENCH_service.json", "benchmark summary output path")
		minSuccess  = flag.Float64("min-success", 0, "exit non-zero unless success rate reaches this fraction (1.0 = every request must answer)")
	)
	flag.Parse()

	bases := splitList(*targets)
	if len(bases) == 0 {
		fatal(errors.New("no -targets"))
	}
	kinds, err := parseMix(*mix)
	if err != nil {
		fatal(err)
	}

	// The key space is derived locally from the same zoo workload the
	// service will build: distinct budgets across the schedulable range are
	// distinct solve keys, so a fleet spreads them across owners by
	// rendezvous hash exactly as real traffic would.
	wl, err := checkmate.Load(*model, checkmate.Options{
		Batch: *batch, Device: *device, CoarseSegments: *segments,
	})
	if err != nil {
		fatal(err)
	}
	minB, peak := wl.MinBudget(), wl.CheckpointAllPeak()
	if *keys < 1 {
		*keys = 1
	}
	lo := minB + int64(*budgetFloor*float64(peak-minB))
	budgets := make([]int64, *keys)
	for i := range budgets {
		budgets[i] = lo
		if *keys > 1 {
			budgets[i] += (peak - lo) * int64(i) / int64(*keys-1)
		}
	}

	c, err := client.NewMulti(bases, nil, client.WithRetry(client.RetryPolicy{
		MaxAttempts: *retries,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    2 * time.Second,
	}))
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("checkmate-load: %d workers, %d keys (zipf %.2f), mix %s, %v against %s\n",
		*concurrency, *keys, *zipfS, *mix, *duration, strings.Join(bases, " "))

	start := time.Now()
	deadline := start.Add(*duration)
	results := make([][]sample, *concurrency)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			zipf := rand.NewZipf(rng, *zipfS, 1, uint64(*keys-1))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				kind := pickKind(rng, kinds)
				budget := budgets[zipf.Uint64()]
				results[w] = append(results[w], runOne(ctx, c, kind, requestSpec{
					model: *model, batch: *batch, device: *device,
					segments: *segments, method: *method,
					timeLimitMS: timeLimit.Milliseconds(),
					budget:      budget, peak: peak,
					timeout: *reqTimeout,
				}))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []sample
	for _, rs := range results {
		all = append(all, rs...)
	}
	report := summarize(all, elapsed, config{
		Targets: bases, DurationMS: duration.Milliseconds(),
		Concurrency: *concurrency, Keys: *keys, ZipfS: *zipfS,
		Mix: *mix, Model: *model, Batch: *batch, Method: *method,
		Seed: *seed,
	})
	report.Targets = scrapeTargets(ctx, bases)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}

	fmt.Printf("checkmate-load: %d requests in %v (%.1f/s): %d ok, %d hard failures, %d shed; p50 %.1fms p99 %.1fms; cache hit %.0f%%; degraded %v -> %s\n",
		report.Total, elapsed.Round(time.Millisecond), report.Throughput,
		report.Success, report.HardFailures, report.Shed,
		report.LatencyMS.P50, report.LatencyMS.P99, 100*report.CacheHitRate,
		report.DegradedByCode, *out)

	if *minSuccess > 0 && report.Total > 0 {
		rate := float64(report.Success) / float64(report.Total)
		if rate < *minSuccess {
			fmt.Fprintf(os.Stderr, "checkmate-load: success rate %.4f below -min-success %.4f\n", rate, *minSuccess)
			os.Exit(2)
		}
	}
}

// requestSpec is everything one request needs; budget is the zipf-chosen key.
type requestSpec struct {
	model, device, method     string
	batch, segments           int
	timeLimitMS, budget, peak int64
	timeout                   time.Duration
}

// sample is one request's outcome.
type sample struct {
	kind     string
	latency  time.Duration
	err      error
	shed     bool // final error was a 503 (load shed / draining, retries exhausted)
	cached   bool
	degraded string // degraded code, "" when full quality
}

// runOne executes one request of the given kind and records its outcome.
// Errors are outcomes, not aborts: the harness's whole point is counting
// them.
func runOne(ctx context.Context, c *client.Client, kind string, spec requestSpec) sample {
	rctx, cancel := context.WithTimeout(ctx, spec.timeout)
	defer cancel()
	s := sample{kind: kind}
	t0 := time.Now()
	switch kind {
	case "solve":
		resp, err := c.Solve(rctx, solveReq(spec))
		s.err = err
		if err == nil {
			s.cached = resp.Cached
			if resp.Degraded {
				s.degraded = resp.DegradedCode
			}
		}
	case "stream":
		resp, err := c.SolveStream(rctx, solveReq(spec), 0, nil)
		s.err = err
		if err == nil {
			s.cached = resp.Cached
			if resp.Degraded {
				s.degraded = resp.DegradedCode
			}
		}
	case "sweep":
		// Three points around the key keep sweeps heavier than solves but
		// bounded; per-point failures count as a degraded-free hard failure
		// only when the sweep itself fails.
		resp, err := c.Sweep(rctx, api.SweepRequest{
			Model: spec.model, Batch: spec.batch, Device: spec.device,
			CoarseSegments: spec.segments, Method: spec.method,
			TimeLimitMS: spec.timeLimitMS,
			Budgets:     []int64{spec.budget, (spec.budget + spec.peak) / 2, spec.peak},
		})
		s.err = err
		if err == nil {
			for _, pt := range resp.Points {
				if pt.Cached {
					s.cached = true
				}
				if pt.Degraded {
					s.degraded = "sweep_point"
				}
			}
		}
	}
	s.latency = time.Since(t0)
	s.shed = client.IsOverloaded(s.err)
	return s
}

func solveReq(spec requestSpec) api.SolveRequest {
	return api.SolveRequest{
		Model: spec.model, Batch: spec.batch, Device: spec.device,
		CoarseSegments: spec.segments, Method: spec.method,
		Budget: spec.budget, TimeLimitMS: spec.timeLimitMS,
	}
}

// config echoes the run's parameters into the benchmark file.
type config struct {
	Targets     []string `json:"targets"`
	DurationMS  int64    `json:"duration_ms"`
	Concurrency int      `json:"concurrency"`
	Keys        int      `json:"keys"`
	ZipfS       float64  `json:"zipf_s"`
	Mix         string   `json:"mix"`
	Model       string   `json:"model"`
	Batch       int      `json:"batch"`
	Method      string   `json:"method"`
	Seed        int64    `json:"seed"`
}

// percentiles summarizes a latency distribution in milliseconds.
type percentiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// kindSummary aggregates one request kind.
type kindSummary struct {
	Count        int64       `json:"count"`
	Success      int64       `json:"success"`
	HardFailures int64       `json:"hard_failures"`
	Shed         int64       `json:"shed"`
	Cached       int64       `json:"cached"`
	Degraded     int64       `json:"degraded"`
	LatencyMS    percentiles `json:"latency_ms"`
}

// targetSummary is one server's counter snapshot after the run, scraped
// from /v1/stats.
type targetSummary struct {
	URL            string           `json:"url"`
	Error          string           `json:"error,omitempty"`
	Solves         int64            `json:"solves,omitempty"`
	CacheHits      int64            `json:"cache_hits,omitempty"`
	CacheMisses    int64            `json:"cache_misses,omitempty"`
	StoreHits      int64            `json:"store_hits,omitempty"`
	StoreMisses    int64            `json:"store_misses,omitempty"`
	RemoteHits     int64            `json:"remote_store_hits,omitempty"`
	RemoteMisses   int64            `json:"remote_store_misses,omitempty"`
	Deduped        int64            `json:"deduped,omitempty"`
	DegradedByCode map[string]int64 `json:"degraded_by_code,omitempty"`
	FleetForwards  int64            `json:"fleet_forwards,omitempty"`
	FleetFallbacks int64            `json:"fleet_local_fallbacks,omitempty"`
	FleetHedges    int64            `json:"fleet_hedges,omitempty"`
	FleetUnhealthy int64            `json:"fleet_unhealthy_peers,omitempty"`
}

// benchReport is the BENCH_service.json shape.
type benchReport struct {
	Config         config                 `json:"config"`
	ElapsedMS      int64                  `json:"elapsed_ms"`
	Total          int64                  `json:"total"`
	Success        int64                  `json:"success"`
	HardFailures   int64                  `json:"hard_failures"`
	Shed           int64                  `json:"shed"`
	Throughput     float64                `json:"throughput_rps"`
	LatencyMS      percentiles            `json:"latency_ms"`
	CacheHitRate   float64                `json:"cache_hit_rate"`
	DegradedByCode map[string]int64       `json:"degraded_by_code"`
	ByKind         map[string]kindSummary `json:"by_kind"`
	Errors         []string               `json:"errors,omitempty"`
	Targets        []targetSummary        `json:"targets,omitempty"`
}

func summarize(all []sample, elapsed time.Duration, cfg config) *benchReport {
	r := &benchReport{
		Config:         cfg,
		ElapsedMS:      elapsed.Milliseconds(),
		DegradedByCode: map[string]int64{},
		ByKind:         map[string]kindSummary{},
	}
	var lats []time.Duration
	byKind := map[string][]time.Duration{}
	var cached int64
	errSet := map[string]int64{}
	for _, s := range all {
		r.Total++
		ks := r.ByKind[s.kind]
		ks.Count++
		if s.err != nil {
			r.HardFailures++
			ks.HardFailures++
			if s.shed {
				r.Shed++
				ks.Shed++
			}
			errSet[s.err.Error()]++
		} else {
			r.Success++
			ks.Success++
			if s.cached {
				cached++
				ks.Cached++
			}
			if s.degraded != "" {
				r.DegradedByCode[s.degraded]++
				ks.Degraded++
			}
		}
		r.ByKind[s.kind] = ks
		lats = append(lats, s.latency)
		byKind[s.kind] = append(byKind[s.kind], s.latency)
	}
	r.LatencyMS = pcts(lats)
	for kind, ks := range r.ByKind {
		ks.LatencyMS = pcts(byKind[kind])
		r.ByKind[kind] = ks
	}
	if r.Success > 0 {
		r.CacheHitRate = float64(cached) / float64(r.Success)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		r.Throughput = float64(r.Total) / secs
	}
	// Distinct error strings (deduplicated, capped) so a failed gate is
	// diagnosable from the artifact alone.
	for msg, n := range errSet {
		r.Errors = append(r.Errors, fmt.Sprintf("%dx %s", n, msg))
	}
	sort.Strings(r.Errors)
	if len(r.Errors) > 20 {
		r.Errors = r.Errors[:20]
	}
	return r
}

func pcts(lats []time.Duration) percentiles {
	if len(lats) == 0 {
		return percentiles{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(p float64) float64 {
		idx := int(p * float64(len(lats)-1))
		return float64(lats[idx].Microseconds()) / 1e3
	}
	return percentiles{P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: at(1)}
}

// scrapeTargets snapshots every server's /v1/stats after the run. A dead
// target reports its error instead of counters — under chaos one peer may
// legitimately still be down.
func scrapeTargets(ctx context.Context, bases []string) []targetSummary {
	out := make([]targetSummary, 0, len(bases))
	for _, base := range bases {
		ts := targetSummary{URL: base}
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		stats, err := client.New(base, nil).Stats(sctx)
		cancel()
		if err != nil {
			ts.Error = err.Error()
			out = append(out, ts)
			continue
		}
		ts.Solves = stats.Solves
		ts.CacheHits = stats.CacheHits
		ts.CacheMisses = stats.CacheMisses
		ts.Deduped = stats.Deduped
		ts.DegradedByCode = stats.Degraded.ByCode
		if st := stats.Store; st != nil {
			ts.StoreHits, ts.StoreMisses = st.Hits, st.Misses
			if st.Remote != nil {
				ts.RemoteHits, ts.RemoteMisses = st.Remote.Hits, st.Remote.Misses
			}
		}
		if f := stats.Fleet; f != nil {
			ts.FleetForwards = f.Forwards
			ts.FleetFallbacks = f.LocalFallbacks
			ts.FleetHedges = f.Hedges
			ts.FleetUnhealthy = int64(f.Unhealthy)
		}
		out = append(out, ts)
	}
	return out
}

// kindWeight is one parsed -mix entry.
type kindWeight struct {
	kind   string
	weight int
}

func parseMix(s string) ([]kindWeight, error) {
	var kinds []kindWeight
	total := 0
	for _, part := range splitList(s) {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -mix entry %q, want kind=weight", part)
		}
		kind := strings.TrimSpace(kv[0])
		switch kind {
		case "solve", "stream", "sweep":
		default:
			return nil, fmt.Errorf("unknown -mix kind %q", kind)
		}
		var w int
		if _, err := fmt.Sscanf(strings.TrimSpace(kv[1]), "%d", &w); err != nil || w < 0 {
			return nil, fmt.Errorf("bad -mix weight %q", kv[1])
		}
		kinds = append(kinds, kindWeight{kind, w})
		total += w
	}
	if total <= 0 {
		return nil, errors.New("-mix has no positive weights")
	}
	return kinds, nil
}

func pickKind(rng *rand.Rand, kinds []kindWeight) string {
	total := 0
	for _, k := range kinds {
		total += k.weight
	}
	n := rng.Intn(total)
	for _, k := range kinds {
		if n < k.weight {
			return k.kind
		}
		n -= k.weight
	}
	return kinds[len(kinds)-1].kind
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "checkmate-load:", err)
	os.Exit(1)
}
