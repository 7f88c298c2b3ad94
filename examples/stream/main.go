// Stream: watch the solver work. Checkmate's optimal solves are anytime
// searches — branch-and-bound holds a feasible incumbent and a proven bound
// long before optimality — and the unified Solve API streams that
// trajectory while the solver runs.
//
// This example shows live incumbent progress at both API levels:
//
//  1. In-process: checkmate.Solve with a Request.Observer receiving typed
//     Started/Incumbent/Bound/Done events.
//  2. Over the wire: the planning service's GET /v1/solve/stream endpoint,
//     consumed with client.SolveStream — the same solve as Server-Sent
//     Events, ending in the exact response the blocking endpoint returns.
//
// Run with:
//
//	go run ./examples/stream
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"time"

	"repro/checkmate"
	"repro/internal/service"
	"repro/internal/service/api"
	"repro/internal/service/client"
)

const model = "mobilenet"

func main() {
	// A budget-tight instance: ~55% of the checkpoint-all peak forces a
	// real search, so incumbents arrive before the optimality proof closes.
	wl, err := checkmate.Load(model, checkmate.Options{Batch: 8, CoarseSegments: 10})
	if err != nil {
		log.Fatal(err)
	}
	peak := wl.CheckpointAllPeak()
	budget := int64(0.55 * float64(peak))
	if minB := wl.MinBudget(); budget < minB {
		budget = minB
	}
	fmt.Printf("%s batch 8: checkpoint-all peak %.2f GiB, solving at %.2f GiB\n\n",
		model, gib(peak), gib(budget))

	// 1. Library-level streaming: an Observer sees every event in order.
	fmt.Println("— in-process: checkmate.Solve with an Observer —")
	sched, err := checkmate.Solve(context.Background(), checkmate.Request{
		Workload:  wl,
		Budget:    budget,
		TimeLimit: 30 * time.Second,
		RelGap:    0.02,
		Observer: checkmate.ObserverFunc(func(e checkmate.Event) {
			switch e.Kind {
			case checkmate.EventStarted:
				fmt.Printf("  started: MILP %d vars × %d rows\n", e.Vars, e.Rows)
			case checkmate.EventIncumbent:
				gap := "gap unproven"
				if !math.IsInf(e.Gap, 1) {
					gap = fmt.Sprintf("gap %.2f%%", 100*e.Gap)
				}
				fmt.Printf("  [%6.2fs] incumbent: overhead %.3fx, %s\n",
					e.Elapsed.Seconds(), e.Overhead, gap)
			case checkmate.EventDone:
				fmt.Printf("  [%6.2fs] done\n", e.Elapsed.Seconds())
			}
		}),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final schedule: overhead %.3fx, peak %.2f GiB, optimal=%v\n\n",
		sched.Overhead(), gib(sched.PeakBytes), sched.Optimal)

	// 2. Service-level streaming: the same anytime trajectory as SSE frames
	// over GET /v1/solve/stream. Concurrent watchers of one solve key share a
	// single in-flight solve; a dropped connection resumes via Last-Event-ID.
	srv, err := service.New(service.Config{Workers: 2, DefaultTimeLimit: 30 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	fmt.Printf("— over the wire: GET /v1/solve/stream on %s —\n", ln.Addr())
	c := client.New("http://"+ln.Addr().String(), nil)
	resp, err := c.SolveStream(context.Background(), api.SolveRequest{
		Model: model, Batch: 8, CoarseSegments: 10,
		Budget: budget, RelGap: 0.02, TimeLimitMS: 30_000,
	}, 0, func(ev api.StreamEvent) {
		fmt.Printf("  sse #%d %-9s %s\n", ev.ID, ev.Event, truncate(string(ev.Data), 90))
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstreamed result: fingerprint %s, overhead %.3fx — identical to the blocking /v1/solve response\n",
		resp.Fingerprint[:12], resp.Overhead)
}

func gib(b int64) float64 { return float64(b) / float64(1<<30) }

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
