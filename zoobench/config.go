package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// Config is workloads.json.
type Config struct {
	Batch        int                        `json:"batch"`
	Device       string                     `json:"device"`
	RelGap       float64                    `json:"rel_gap"`
	Zoo          map[string]ZooWorkload     `json:"zoo"`
	Service      map[string]ServiceWorkload `json:"service"`
	KnownDefects []KnownDefect              `json:"known_defects"`
	TimeLimited  []KnownDefect              `json:"time_limited"`
	ExactCounts  map[string][]string        `json:"exact_counts"`
}

// ZooWorkload is a list of instances planned once, one after another.
type ZooWorkload struct {
	Why       string     `json:"why"`
	Instances []Instance `json:"instances"`
}

// Instance is one solve of a zoo model at a budget fraction.
type Instance struct {
	Model      string  `json:"model"`
	Segments   int     `json:"segments"`
	Fraction   float64 `json:"fraction"`
	Method     string  `json:"method"`
	TimeLimitS float64 `json:"time_limit_s"`
}

// Name identifies the instance in reports: model/segments/fraction/method.
func (in Instance) Name() string {
	return fmt.Sprintf("%s/%d/%.2f/%s", in.Model, in.Segments, in.Fraction, in.Method)
}

// TimeLimit is the instance's per-solve time limit.
func (in Instance) TimeLimit() time.Duration {
	return time.Duration(in.TimeLimitS * float64(time.Second))
}

// ServiceWorkload is an open-loop request mix against one planner.
type ServiceWorkload struct {
	Why            string   `json:"why"`
	RateRPS        float64  `json:"rate_rps"`
	Connections    int      `json:"connections"`
	Workers        int      `json:"workers"`
	CacheCap       int      `json:"cache_cap"`
	CacheShards    int      `json:"cache_shards"`
	LatencyLimitMS float64  `json:"latency_limit_ms"`
	Segments       int      `json:"segments"`
	Models         []string `json:"models"`
	// Warm is the prewarmed key set: every model at every fraction, ranked
	// fraction-major, requested with zipf skew ZipfS over that rank.
	Warm struct {
		ZipfS      float64   `json:"zipf_s"`
		Fractions  []float64 `json:"fractions"`
		Method     string    `json:"method"`
		TimeLimitS float64   `json:"time_limit_s"`
	} `json:"warm"`
	Fresh struct {
		Every       int     `json:"every"`
		FractionMin float64 `json:"fraction_min"`
		FractionMax float64 `json:"fraction_max"`
		Method      string  `json:"method"`
		TimeLimitS  float64 `json:"time_limit_s"`
	} `json:"fresh"`
}

// KnownDefect is a deterministic defect of the planner the benchmark
// reports on every run: the instance fails the named check.
type KnownDefect struct {
	Workload string `json:"workload"`
	Instance string `json:"instance"`
	Check    string `json:"check"`
	Note     string `json:"note"`
}

func loadConfig() (*Config, error) {
	var c Config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &c, nil
}
