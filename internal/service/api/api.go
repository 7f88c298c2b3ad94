// Package api defines the JSON wire types of the rematerialization-planning
// service. Both the HTTP server (internal/service) and the Go client
// (internal/service/client) speak these types, so a schedule solved once by
// the service round-trips losslessly into any training job.
package api

import (
	"encoding/json"
	"fmt"

	"repro/internal/graph"
	"repro/internal/service/fleet"
	"repro/internal/service/store"
)

// NodeSpec is one operation of a serialized data-flow graph.
type NodeSpec struct {
	Name string `json:"name,omitempty"`
	// Cost is the node's compute cost (seconds or FLOPs, caller's units).
	Cost float64 `json:"cost"`
	// Mem is the output size in bytes.
	Mem int64 `json:"mem"`
	// Backward marks gradient nodes.
	Backward bool `json:"backward,omitempty"`
	// Stage optionally records a layer index.
	Stage int `json:"stage,omitempty"`
}

// GraphSpec is a serialized training DAG: the fully general solve input for
// callers whose models are not in the zoo. Edges are (src, dst) pairs over
// node indices; indices must already be in topological order.
type GraphSpec struct {
	Nodes []NodeSpec `json:"nodes"`
	Edges [][2]int   `json:"edges"`
	// Overhead is M_input + 2·M_param (paper eq. (2)): bytes permanently
	// resident regardless of the schedule.
	Overhead int64 `json:"overhead,omitempty"`
}

// Build converts the spec into a validated graph.
func (s *GraphSpec) Build() (*graph.Graph, error) {
	if len(s.Nodes) == 0 {
		return nil, fmt.Errorf("api: graph has no nodes")
	}
	g := graph.New(len(s.Nodes))
	for _, n := range s.Nodes {
		g.AddNode(graph.Node{Name: n.Name, Cost: n.Cost, Mem: n.Mem, Backward: n.Backward, Stage: n.Stage})
	}
	for _, e := range s.Edges {
		if err := g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1])); err != nil {
			return nil, fmt.Errorf("api: %w", err)
		}
	}
	if !g.IsTopoSorted() {
		return nil, fmt.Errorf("api: graph nodes must be listed in topological order")
	}
	return g, nil
}

// GraphSpecOf serializes a graph (the inverse of Build).
func GraphSpecOf(g *graph.Graph, overhead int64) *GraphSpec {
	s := &GraphSpec{Overhead: overhead}
	for i := 0; i < g.Len(); i++ {
		n := g.Node(graph.NodeID(i))
		s.Nodes = append(s.Nodes, NodeSpec{Name: n.Name, Cost: n.Cost, Mem: n.Mem, Backward: n.Backward, Stage: n.Stage})
	}
	for _, e := range g.Edges() {
		s.Edges = append(s.Edges, [2]int{int(e[0]), int(e[1])})
	}
	return s
}

// SolveRequest asks for one schedule. Exactly one of Model or Graph must be
// set: Model selects a zoo architecture built server-side, Graph supplies a
// serialized training DAG. The server rejects a request that names a field
// this type does not have.
type SolveRequest struct {
	// Model is a zoo architecture name (see GET /v1/models).
	Model string `json:"model,omitempty"`
	// Batch is the batch size for zoo models (default 1).
	Batch int `json:"batch,omitempty"`
	// Device selects the zoo cost model: "v100" (default), "tpu", "cpu".
	Device string `json:"device,omitempty"`
	// CoarseSegments optionally contracts the forward graph to about this
	// many nodes before differentiation (bounds MILP size).
	CoarseSegments int `json:"coarse_segments,omitempty"`
	// Graph is the raw-graph alternative to Model.
	Graph *GraphSpec `json:"graph,omitempty"`

	// Budget is the memory budget in bytes (required, > 0).
	Budget int64 `json:"budget"`
	// Method selects the solver method: one of the names served by
	// GET /v1/methods ("optimal", "approx", "baseline", "interval", "auto");
	// empty selects the server default (optimal).
	Method string `json:"method,omitempty"`
	// TimeLimitMS bounds the optimal solve's wall clock (server default and
	// cap apply).
	TimeLimitMS int64 `json:"time_limit_ms,omitempty"`
	// RelGap is the accepted relative optimality gap (default: prove
	// optimality).
	RelGap float64 `json:"rel_gap,omitempty"`
	// NoCache skips the schedule cache for this request (the result is
	// still stored).
	NoCache bool `json:"no_cache,omitempty"`
}

// SolveResponse is one solved schedule.
type SolveResponse struct {
	// Fingerprint is the canonical cache key of this (graph, budget,
	// options) instance.
	Fingerprint string `json:"fingerprint"`
	// Cached reports whether the schedule was served from the cache.
	Cached bool `json:"cached"`
	// Method is the solver method that produced the schedule. Requests for
	// method "auto" see the concrete method the router chose, never "auto".
	Method string `json:"method"`
	// Optimal reports proven optimality (always false for approx).
	Optimal bool `json:"optimal"`
	// Cost and IdealCost are in the workload's cost units; Overhead is
	// Cost/IdealCost, the paper's "overhead ×" axis.
	Cost      float64 `json:"cost"`
	IdealCost float64 `json:"ideal_cost"`
	Overhead  float64 `json:"overhead"`
	// PeakBytes is simulated peak memory including the fixed overhead.
	PeakBytes int64 `json:"peak_bytes"`
	Budget    int64 `json:"budget"`
	// GraphNodes is the size of the scheduled training DAG.
	GraphNodes int `json:"graph_nodes"`
	// SolveMS is the wall-clock of the solve that produced the schedule
	// (zero-ish when served from cache).
	SolveMS float64 `json:"solve_ms"`
	// Degraded reports that the anytime fallback ladder served this schedule
	// below full quality — a stronger rung failed, was skipped, or ran out of
	// deadline. The schedule is still budget-feasible. DegradedCode is the
	// machine-readable cause ("panic", "limit", "infeasible", "skipped",
	// "error", "unproven"); DegradedReason narrates the ladder's path.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedCode   string `json:"degraded_code,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Plan is the execution plan in the internal/schedule JSON format
	// (version-tagged; decode with schedule.ReadPlanJSON).
	Plan json.RawMessage `json:"plan"`
}

// SweepRequest solves one workload at several budgets — the service form of
// the paper's Figure 5 budget sweeps. Budgets lists explicit budgets; when
// empty, Points budgets are spaced evenly between the workload's minimum
// feasible budget and its checkpoint-all peak. Like SolveRequest, a request
// naming a field this type does not have is rejected.
type SweepRequest struct {
	Model          string     `json:"model,omitempty"`
	Batch          int        `json:"batch,omitempty"`
	Device         string     `json:"device,omitempty"`
	CoarseSegments int        `json:"coarse_segments,omitempty"`
	Graph          *GraphSpec `json:"graph,omitempty"`

	Budgets []int64 `json:"budgets,omitempty"`
	Points  int     `json:"points,omitempty"`
	// Method selects the solver method for every point (see
	// SolveRequest.Method).
	Method      string  `json:"method,omitempty"`
	TimeLimitMS int64   `json:"time_limit_ms,omitempty"`
	RelGap      float64 `json:"rel_gap,omitempty"`
}

// SweepPoint is one budget's outcome within a sweep. Infeasible budgets
// carry Error instead of failing the whole sweep.
type SweepPoint struct {
	Budget      int64   `json:"budget"`
	Feasible    bool    `json:"feasible"`
	Cached      bool    `json:"cached,omitempty"`
	Optimal     bool    `json:"optimal,omitempty"`
	Degraded    bool    `json:"degraded,omitempty"`
	Overhead    float64 `json:"overhead,omitempty"`
	PeakBytes   int64   `json:"peak_bytes,omitempty"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// SweepResponse is the ordered sweep outcome plus workload envelope data.
type SweepResponse struct {
	// MinBudget and CheckpointAllPeak bracket the interesting budget range.
	MinBudget         int64        `json:"min_budget"`
	CheckpointAllPeak int64        `json:"checkpoint_all_peak"`
	Points            []SweepPoint `json:"points"`
}

// Stream event names of GET /v1/solve/stream. A stream is a sequence of
// SSE frames: exactly one "started" (absent on a cache hit), any number of
// "incumbent", "bound", and "degraded" frames, and exactly one terminal
// "done". SSE comment lines (": hb") are heartbeats and carry no event.
const (
	StreamEventStarted   = "started"
	StreamEventIncumbent = "incumbent"
	StreamEventBound     = "bound"
	StreamEventDegraded  = "degraded"
	StreamEventDone      = "done"
	// StreamEventSweepPoint appears only on GET /v1/sweep/stream: one frame
	// per completed budget point, in completion (not budget) order.
	StreamEventSweepPoint = "sweep_point"
)

// StreamEvent is one decoded SSE frame of a streaming solve. ID is the
// frame's position in the stream (1-based); a reconnecting client sends it
// back as the Last-Event-ID header to resume the in-flight solve's stream
// without replaying frames it has already seen.
type StreamEvent struct {
	ID    int             `json:"id"`
	Event string          `json:"event"`
	Data  json.RawMessage `json:"data"`
}

// StreamStarted is the payload of the "started" event: the solver accepted
// the problem and built the MILP.
type StreamStarted struct {
	Fingerprint string `json:"fingerprint"`
	Budget      int64  `json:"budget"`
	GraphNodes  int    `json:"graph_nodes"`
	// Vars and Rows are the MILP dimensions (zero for the approx solver,
	// which builds no integer program).
	Vars int `json:"vars,omitempty"`
	Rows int `json:"rows,omitempty"`
}

// StreamIncumbent is the payload of the "incumbent" event: the solver holds
// a new best feasible schedule, usable now if the deadline fires.
type StreamIncumbent struct {
	// Objective is the incumbent schedule cost in the workload's cost
	// units; Overhead is its ratio to the ideal checkpoint-all cost.
	Objective float64 `json:"objective"`
	Overhead  float64 `json:"overhead"`
	// Bound and Gap describe the optimality proof so far; both are omitted
	// while no lower bound is proven.
	Bound *float64 `json:"bound,omitempty"`
	Gap   *float64 `json:"gap,omitempty"`
	// ElapsedMS is solver time since the solve started.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// StreamBound is the payload of the "bound" event: the proven lower bound
// improved (the incumbent is unchanged).
type StreamBound struct {
	Bound     float64 `json:"bound"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// StreamDegraded is the payload of the "degraded" event: the anytime
// fallback ladder abandoned one rung and fell through to the next. The
// stream continues — the following incumbents come from the To method.
type StreamDegraded struct {
	// From is the method that failed or was skipped; To is the rung the
	// ladder fell to.
	From string `json:"from"`
	To   string `json:"to"`
	// Reason narrates why the rung did not serve (panic, time limit, skip
	// projection, ...).
	Reason string `json:"reason"`
	// ElapsedMS is solver time since the solve started.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// StreamSweepPoint is the payload of the "sweep_point" event: one budget of
// a streaming sweep finished. Index is the point's position in the final
// (budget-ascending) Points slice; frames arrive in completion order, so a
// renderer should place — not append — points by Index.
type StreamSweepPoint struct {
	Index int        `json:"index"`
	Total int        `json:"total"`
	Point SweepPoint `json:"point"`
}

// StreamDone is the terminal payload: the final schedule (identical to the
// blocking /v1/solve response for the same request), or the error that
// ended the solve with Status carrying the HTTP status /v1/solve would have
// returned. Sweep streams carry Sweep instead of Result.
type StreamDone struct {
	Error  string         `json:"error,omitempty"`
	Status int            `json:"status,omitempty"`
	Result *SolveResponse `json:"result,omitempty"`
	// Sweep is the terminal payload of GET /v1/sweep/stream: the complete
	// SweepResponse the blocking /v1/sweep endpoint would have returned.
	Sweep *SweepResponse `json:"sweep,omitempty"`
	// RequestID echoes the X-Request-ID of the stream request so a dropped
	// or failed stream can be correlated with server logs.
	RequestID string `json:"request_id,omitempty"`
}

// ModelInfo describes one zoo architecture.
type ModelInfo struct {
	Name string `json:"name"`
}

// ModelsResponse lists the architectures GET /v1/models can solve by name.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

// MethodInfo describes one solver method the service accepts; it mirrors
// the checkmate package's method registry.
type MethodInfo struct {
	Method      string `json:"method"`
	Description string `json:"description"`
}

// MethodsResponse lists the solver methods GET /v1/methods serves — the
// legal values of SolveRequest.Method.
type MethodsResponse struct {
	Methods []MethodInfo `json:"methods"`
}

// CacheShardStats describes one shard of the in-memory schedule cache.
type CacheShardStats struct {
	Size int `json:"size"`
	Cap  int `json:"cap"`
	// Hits / Misses count lookups routed to this shard; Evictions counts
	// LRU entries dropped for capacity.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// StoreStats describes the persistent second-tier schedule store, when one
// is configured (--cache-dir). It is the store package's own stats type —
// aliased rather than mirrored so a new store counter cannot silently go
// missing from the wire format.
type StoreStats = store.Stats

// FleetStats describes fleet mode (membership, peer health, forwarding),
// when enabled (-self/-peers). Aliased from the fleet package for the same
// no-silent-drift reason as StoreStats.
type FleetStats = fleet.Stats

// AdmissionStats describes cost-aware admission control: solves are admitted
// while the summed cost estimate of unfinished work stays under the limit.
type AdmissionStats struct {
	// MaxOutstandingCost is the admission limit in cost units (0 = admission
	// disabled, queue depth still bounds).
	MaxOutstandingCost float64 `json:"max_outstanding_cost"`
	// OutstandingCost is the projected cost of admitted, unfinished solves.
	OutstandingCost float64 `json:"outstanding_cost"`
	// EstimateRatio is the exponentially-weighted mean of actual solve
	// milliseconds over the raw estimate — the online calibration factor
	// applied to future estimates. 1.0 until Samples > 0.
	EstimateRatio float64 `json:"estimate_ratio"`
	// Samples counts solves that have fed the calibration.
	Samples int64 `json:"samples"`
	// Rejected counts requests refused because projected cost exceeded the
	// limit.
	Rejected int64 `json:"rejected"`
}

// SolverStats aggregates simplex/branch-and-bound performance counters over
// every optimal solve the service has run. The warm-start numbers track the
// dual-simplex basis-reuse machinery: hits/(hits+misses) is the fraction of
// node LPs that reoptimized from an inherited basis instead of cold-solving.
type SolverStats struct {
	SimplexIters int64 `json:"simplex_iters"`
	DualIters    int64 `json:"dual_iters"`
	// BoundFlips counts bound-to-bound flips by the long-step dual ratio
	// test (each replaces a full dual pivot); PricingUpdates counts dual
	// steepest-edge reference-weight updates.
	BoundFlips     int64 `json:"bound_flips"`
	PricingUpdates int64 `json:"pricing_updates"`
	Phase1Skipped  int64 `json:"phase1_skipped"`
	WarmHits       int64 `json:"warm_hits"`
	WarmMisses     int64 `json:"warm_misses"`
	// StrongBranchProbes / ProbeIters describe pseudo-cost reliability
	// initialization (probe LPs and their simplex iterations);
	// PseudoReliable counts branchings decided from reliable pseudo-costs
	// without probing.
	StrongBranchProbes int64 `json:"strong_branch_probes"`
	ProbeIters         int64 `json:"probe_iters"`
	PseudoReliable     int64 `json:"pseudo_reliable"`
	// EpsSolves / EpsWarmHits describe the approx path's ε-search LP chain:
	// relaxations solved and how many warm-started from the previous ε's
	// basis.
	EpsSolves   int64 `json:"eps_solves"`
	EpsWarmHits int64 `json:"eps_warm_hits"`
	// Nodes is total branch-and-bound nodes; NodesPerSec divides it by the
	// summed solver wall-clock.
	Nodes       int64   `json:"nodes"`
	NodesPerSec float64 `json:"nodes_per_sec"`
	// Threads is the configured per-solve worker count.
	Threads int `json:"threads"`
}

// DegradedStats counts schedules the anytime fallback ladder served below
// full quality (SolveResponse.Degraded set).
type DegradedStats struct {
	// Solves counts degraded schedules served since start.
	Solves int64 `json:"solves"`
	// ByCode breaks Solves down by DegradedCode ("panic", "limit",
	// "skipped", ...).
	ByCode map[string]int64 `json:"by_code,omitempty"`
}

// StatsResponse is the service-level counter snapshot of GET /v1/stats.
type StatsResponse struct {
	// Requests counts HTTP requests accepted per endpoint.
	Requests map[string]int64 `json:"requests"`
	// Solves counts solver executions (cache misses that ran to completion).
	Solves int64 `json:"solves"`
	// CacheHits / CacheMisses count in-memory schedule-cache lookups,
	// summed over shards; CacheEvictions counts LRU drops.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	// CacheSize / CacheCap describe current cache occupancy.
	CacheSize int `json:"cache_size"`
	CacheCap  int `json:"cache_cap"`
	// CacheShards breaks the in-memory cache down per shard.
	CacheShards []CacheShardStats `json:"cache_shards,omitempty"`
	// Store describes the persistent tier; nil when none is configured.
	Store *StoreStats `json:"store,omitempty"`
	// Fleet describes fleet-mode membership, peer health, and forwarding;
	// nil for a standalone server.
	Fleet *FleetStats `json:"fleet,omitempty"`
	// Admission describes cost-aware admission control.
	Admission AdmissionStats `json:"admission"`
	// Solver aggregates MILP performance counters across solves.
	Solver SolverStats `json:"solver"`
	// Degraded counts schedules served below full quality by the anytime
	// fallback ladder.
	Degraded DegradedStats `json:"degraded"`
	// Deduped counts requests that attached to an identical in-flight solve
	// instead of starting their own.
	Deduped int64 `json:"deduped"`
	// Cancelled counts solves abandoned because every waiting request went
	// away; Errors counts failed solves.
	Cancelled int64 `json:"cancelled"`
	Errors    int64 `json:"errors"`
	// InFlight / QueueDepth describe the worker pool right now.
	InFlight   int64 `json:"in_flight"`
	QueueDepth int   `json:"queue_depth"`
	Workers    int   `json:"workers"`
	// WorkerPanics counts pool workers lost to a contained panic (each was
	// respawned, so Workers still holds).
	WorkerPanics int64 `json:"worker_panics"`
	UptimeMS     int64 `json:"uptime_ms"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
	// RequestID identifies the failed request in the server's logs and
	// metrics; it matches the X-Request-ID response header.
	RequestID string `json:"request_id,omitempty"`
}

// TraceListResponse lists the solve fingerprints whose execution traces the
// server still retains (GET /v1/solve/trace with no key), most recent first.
// Fetch one with GET /v1/solve/trace?key=<fingerprint>.
type TraceListResponse struct {
	Keys []string `json:"keys"`
}
