// Package fleet implements partition-tolerant multi-planner serving: the
// membership, failure-detection, ownership, and forwarding layer that lets a
// set of checkmate-serve processes act as one planner.
//
// Checkmate's economics (paper Figure 2) are solve-once, serve-forever: a
// schedule costs minutes of MILP time and amortizes over millions of
// training iterations. A fleet shares that one-time cost — each solve key is
// rendezvous-hashed to exactly one owner, so the fleet-wide single-flight
// property holds: no two peers burn MILP time on the same instance, and the
// owner's cache and warm-start state concentrate instead of fragmenting.
//
// The design is deliberately static and decentralized:
//
//   - Membership is a static peer list (checkmate-serve -peers); there is no
//     gossip or consensus. Every member probes every other member's /healthz
//     on an interval, marks a peer down after a run of consecutive failures,
//     and re-probes downed peers on a jittered exponential backoff — the
//     same trip/heal state machine as the store circuit breaker
//     (store.Breaker), applied to peers instead of disks.
//   - Ownership is rendezvous (highest-random-weight) hashing over the
//     healthy members. It is a pure function of (member URL, key), so every
//     process that agrees on membership and health agrees on the owner
//     without coordination, and a membership change remaps only the keys the
//     lost or gained member owned.
//   - Forwarding is best-effort with bounded patience: per-attempt timeouts,
//     transient-only retries with jittered backoff, and a hedged second
//     attempt after an EWMA-p99 delay (safe because the owner's single-flight
//     pool dedupes the duplicate). When the owner cannot be reached the
//     caller solves locally and stamps the result with the fleet_local
//     degradation code — availability beats dedup during a partition.
package fleet

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// HopHeader marks a forwarded request. A request carrying it is never
// forwarded again: health views can diverge during partitions, and the
// one-hop bound is what makes a forwarding loop impossible by construction.
const HopHeader = "X-Checkmate-Fleet-Hop"

// Config configures one fleet member. The zero value of every tunable
// selects the documented default.
type Config struct {
	// Self is this process's advertised base URL (e.g. "http://10.0.0.1:8780").
	// It must be resolvable by the peers; it is also the identity rendezvous
	// hashing scores, so every member must spell every URL identically.
	Self string
	// Peers lists all fleet members' base URLs. Self may be included (it is
	// filtered out); duplicates are dropped.
	Peers []string
	// ProbeInterval is the /healthz probe period for healthy peers
	// (default 2s). ProbeTimeout bounds one probe (default 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailureThreshold is the run of consecutive probe (or forward) failures
	// that marks a peer down (default 3). A single failure is weather; a run
	// is a partition.
	FailureThreshold int
	// ProbeBackoff is the re-probe delay right after a peer is marked down
	// (default 500ms); each failed re-probe doubles it up to ProbeMaxBackoff
	// (default 15s). Every delay is jittered to [50%, 100%] so a fleet does
	// not probe a struggling peer in lockstep.
	ProbeBackoff    time.Duration
	ProbeMaxBackoff time.Duration
	// ForwardAttempts bounds tries per forwarded request, the first included
	// (default 2); only transient failures (transport errors, 502/503/504)
	// are retried, after a jittered backoff seeded by ForwardBackoff
	// (default 100ms).
	ForwardAttempts int
	ForwardBackoff  time.Duration
	// HedgeMin / HedgeMax clamp the hedged-attempt delay computed from the
	// owner's EWMA-p99 forward latency (defaults 50ms and 2s).
	HedgeMin time.Duration
	HedgeMax time.Duration
	// HTTPClient carries probes and forwards (default: a pooled transport
	// with dial/TLS timeouts; no overall timeout — per-attempt contexts
	// bound forwards, and SSE relays are legitimately long-lived).
	HTTPClient *http.Client
	// Logger receives membership transitions and forward diagnostics
	// (default slog.Default()).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.ProbeBackoff <= 0 {
		c.ProbeBackoff = 500 * time.Millisecond
	}
	if c.ProbeMaxBackoff <= 0 {
		c.ProbeMaxBackoff = 15 * time.Second
	}
	if c.ForwardAttempts <= 0 {
		c.ForwardAttempts = 2
	}
	if c.ForwardBackoff <= 0 {
		c.ForwardBackoff = 100 * time.Millisecond
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 50 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 2 * time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Transport: &http.Transport{
			Proxy:                 http.ProxyFromEnvironment,
			MaxIdleConns:          64,
			MaxIdleConnsPerHost:   16,
			IdleConnTimeout:       90 * time.Second,
			TLSHandshakeTimeout:   3 * time.Second,
			ExpectContinueTimeout: time.Second,
		}}
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// peer is one remote member's live state. Health is optimistic at start:
// routing must work before the first probe round, and a genuinely dead peer
// is demoted within FailureThreshold probes.
type peer struct {
	url string

	healthy     atomic.Bool
	consecutive atomic.Int64 // current run of probe/forward failures

	probes     atomic.Int64
	probeFails atomic.Int64
	downs      atomic.Int64 // healthy→down transitions

	lat latEstimator // successful forward latency, feeds the hedge delay
}

// PeerStats is one peer's point-in-time snapshot within Stats.
type PeerStats struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// ConsecutiveFailures is the current run of failed probes or forwards.
	ConsecutiveFailures int64 `json:"consecutive_failures"`
	Probes              int64 `json:"probes"`
	ProbeFailures       int64 `json:"probe_failures"`
	// Downs counts healthy→down transitions since start.
	Downs int64 `json:"downs"`
	// ForwardP99MS is the EWMA-p99 estimate of successful forward latency to
	// this peer, in milliseconds (0 until a forward succeeds).
	ForwardP99MS float64 `json:"forward_p99_ms"`
}

// Stats is the fleet snapshot exported via /v1/stats and the
// checkmate_fleet_* metrics.
type Stats struct {
	Self string `json:"self"`
	// Members counts all fleet members, self included; Healthy/Unhealthy
	// split them by current probe state (self is always healthy).
	Members   int `json:"members"`
	Healthy   int `json:"healthy"`
	Unhealthy int `json:"unhealthy"`
	// Probes / ProbeFailures / Downs aggregate the failure detector across
	// peers (per-peer numbers are in Peers).
	Probes        int64 `json:"probes"`
	ProbeFailures int64 `json:"probe_failures"`
	Downs         int64 `json:"downs"`
	// Forwards counts requests proxied to an owner; ForwardRetries counts
	// transient-failure retries within those; ForwardErrors counts forwards
	// that exhausted their attempts (the caller then solved locally).
	Forwards       int64 `json:"forwards"`
	ForwardRetries int64 `json:"forward_retries"`
	ForwardErrors  int64 `json:"forward_errors"`
	// LocalFallbacks counts requests served locally with the fleet_local
	// degradation because the owner was down or unreachable.
	LocalFallbacks int64 `json:"local_fallbacks"`
	// Hedges counts second attempts launched after the EWMA-p99 delay;
	// HedgeWins counts hedges that answered first.
	Hedges    int64       `json:"hedges"`
	HedgeWins int64       `json:"hedge_wins"`
	Peers     []PeerStats `json:"peers"`
}

// Fleet is one member's view of the planner fleet. Create with New, Close to
// stop the failure detector.
type Fleet struct {
	cfg    Config
	self   string
	peers  []*peer // sorted by URL, self excluded
	byURL  map[string]*peer
	client *http.Client
	log    *slog.Logger

	forwards       atomic.Int64
	forwardRetries atomic.Int64
	forwardErrors  atomic.Int64
	localFallbacks atomic.Int64
	hedges         atomic.Int64
	hedgeWins      atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// New validates cfg, starts one probe loop per peer, and returns the fleet.
// A single-member "fleet" (peers empty or all equal to Self) is valid and
// inert: every key is owned locally and nothing is probed.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	self, err := normalizeURL(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("fleet: self URL: %w", err)
	}
	f := &Fleet{
		cfg:    cfg,
		self:   self,
		byURL:  make(map[string]*peer),
		client: cfg.HTTPClient,
		log:    cfg.Logger.With("component", "fleet"),
		stop:   make(chan struct{}),
	}
	for _, raw := range cfg.Peers {
		u, err := normalizeURL(raw)
		if err != nil {
			return nil, fmt.Errorf("fleet: peer URL %q: %w", raw, err)
		}
		if u == self || f.byURL[u] != nil {
			continue
		}
		p := &peer{url: u}
		p.healthy.Store(true)
		f.peers = append(f.peers, p)
		f.byURL[u] = p
	}
	sort.Slice(f.peers, func(i, j int) bool { return f.peers[i].url < f.peers[j].url })
	for _, p := range f.peers {
		f.wg.Add(1)
		go f.probeLoop(p)
	}
	f.log.Info("fleet membership configured", "self", self, "peers", len(f.peers))
	return f, nil
}

// normalizeURL canonicalizes a member URL so rendezvous identities compare
// equal across processes: scheme+host (lowercased), no path, no trailing
// slash.
func normalizeURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	if raw == "" {
		return "", fmt.Errorf("empty URL")
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("scheme must be http or https, got %q", u.Scheme)
	}
	if u.Host == "" {
		return "", fmt.Errorf("missing host")
	}
	if u.Path != "" || u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("member URLs must be bare scheme://host[:port]")
	}
	return strings.ToLower(u.Scheme) + "://" + strings.ToLower(u.Host), nil
}

// Self returns this member's canonical URL.
func (f *Fleet) Self() string { return f.self }

// Close stops every probe loop. Idempotent-unsafe by design (call once, like
// Server.Close); in-flight forwards are unaffected.
func (f *Fleet) Close() {
	close(f.stop)
	f.wg.Wait()
}

// NoteLocalFallback records one request served locally under the fleet_local
// degradation; the service calls it where the response is stamped.
func (f *Fleet) NoteLocalFallback() { f.localFallbacks.Add(1) }

// probeLoop is peer p's failure detector: /healthz on ProbeInterval while
// the peer is healthy, jittered exponential backoff from ProbeBackoff to
// ProbeMaxBackoff while it is down — the store.Breaker heal loop, applied to
// a peer. The first probe is jittered into (0, ProbeInterval] so a fleet
// restart does not synchronize every member's probe schedule.
func (f *Fleet) probeLoop(p *peer) {
	defer f.wg.Done()
	// A panicking detector would silently freeze this peer's health state;
	// contain, log, and leave the last-known state standing.
	defer func() {
		if r := recover(); r != nil {
			perr := telemetry.Recovered("fleet.probe", r)
			f.log.Error("fleet probe loop panic contained; peer health frozen",
				"peer", p.url, "err", perr, "stack", string(perr.Stack))
		}
	}()
	wait := jitter(f.cfg.ProbeInterval)
	backoff := f.cfg.ProbeBackoff
	for {
		t := time.NewTimer(wait)
		select {
		case <-f.stop:
			t.Stop()
			return
		case <-t.C:
		}
		p.probes.Add(1)
		err := f.probeOnce(p)
		if err == nil {
			p.consecutive.Store(0)
			if !p.healthy.Swap(true) {
				f.log.Info("fleet peer healthy again", "peer", p.url)
			}
			backoff = f.cfg.ProbeBackoff
			wait = jitter(f.cfg.ProbeInterval)
			continue
		}
		p.probeFails.Add(1)
		f.noteFailure(p, err)
		if p.healthy.Load() {
			wait = jitter(f.cfg.ProbeInterval)
		} else {
			wait = jitter(backoff)
			if backoff *= 2; backoff > f.cfg.ProbeMaxBackoff {
				backoff = f.cfg.ProbeMaxBackoff
			}
		}
	}
}

// probeOnce performs one /healthz round trip against p.
func (f *Fleet) probeOnce(p *peer) error {
	//lint:detach health probes are background liveness checks, not request work
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// noteFailure counts one failed probe or forward against p and demotes it at
// the threshold. Forward failures feed the same counter as probes, so a
// partition surfaces at request speed instead of waiting for the prober.
func (f *Fleet) noteFailure(p *peer, err error) {
	n := p.consecutive.Add(1)
	if n >= int64(f.cfg.FailureThreshold) && p.healthy.Swap(false) {
		p.downs.Add(1)
		f.log.Warn("fleet peer marked down; its keys fall back to local solves",
			"peer", p.url, "consecutive_failures", n, "err", err)
	}
}

// noteSuccess clears p's failure run. It does not flip a down peer back to
// healthy — recovery is the prober's call, so one lucky forward during a
// flapping partition cannot oscillate ownership.
func (p *peer) noteSuccess() { p.consecutive.Store(0) }

// jitter spreads d over [d/2, d] so independent processes desynchronize.
func jitter(d time.Duration) time.Duration {
	if d <= time.Millisecond {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half+1))
}

// Stats snapshots the fleet.
func (f *Fleet) Stats() Stats {
	st := Stats{
		Self:           f.self,
		Members:        len(f.peers) + 1,
		Healthy:        1, // self
		Forwards:       f.forwards.Load(),
		ForwardRetries: f.forwardRetries.Load(),
		ForwardErrors:  f.forwardErrors.Load(),
		LocalFallbacks: f.localFallbacks.Load(),
		Hedges:         f.hedges.Load(),
		HedgeWins:      f.hedgeWins.Load(),
	}
	for _, p := range f.peers {
		ps := PeerStats{
			URL:                 p.url,
			Healthy:             p.healthy.Load(),
			ConsecutiveFailures: p.consecutive.Load(),
			Probes:              p.probes.Load(),
			ProbeFailures:       p.probeFails.Load(),
			Downs:               p.downs.Load(),
			ForwardP99MS:        p.lat.p99MS(),
		}
		if ps.Healthy {
			st.Healthy++
		} else {
			st.Unhealthy++
		}
		st.Probes += ps.Probes
		st.ProbeFailures += ps.ProbeFailures
		st.Downs += ps.Downs
		st.Peers = append(st.Peers, ps)
	}
	return st
}
