package offload

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/graph"
)

func trainChain(t testing.TB, L int, mem int64) *graph.Graph {
	t.Helper()
	fwd := graph.New(L)
	for i := 0; i < L; i++ {
		fwd.AddNode(graph.Node{Cost: 1e-3, Mem: mem})
	}
	for i := 1; i < L; i++ {
		fwd.MustEdge(graph.NodeID(i-1), graph.NodeID(i))
	}
	res, err := autodiff.Differentiate(fwd, autodiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

func TestAmpleBudgetNoSwaps(t *testing.T) {
	g := trainChain(t, 8, 1000)
	res, err := Plan(g, 0, 1<<40, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapEvents != 0 || res.TransferTime != 0 {
		t.Fatalf("unnecessary swapping: %+v", res)
	}
	if res.TotalTime != res.ComputeTime {
		t.Fatal("total must equal compute with no transfers")
	}
}

func TestTightBudgetSwaps(t *testing.T) {
	g := trainChain(t, 10, 1000)
	full, err := Plan(g, 0, 1<<40, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Plan(g, 0, full.PeakBytes/2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tight.SwapEvents == 0 {
		t.Fatal("tight budget should force swaps")
	}
	if tight.PeakBytes > full.PeakBytes/2 {
		t.Fatalf("peak %d over budget %d", tight.PeakBytes, full.PeakBytes/2)
	}
	if tight.TotalTime <= tight.ComputeTime {
		t.Fatal("transfers must cost time")
	}
	// Compute is never redone under offloading.
	if tight.ComputeTime != full.ComputeTime {
		t.Fatal("offload must not recompute")
	}
}

func TestInfeasibleWorkingSet(t *testing.T) {
	g := trainChain(t, 4, 1000)
	if _, err := Plan(g, 0, 1500, Options{}); err == nil {
		t.Fatal("budget below a single working set accepted")
	}
}

func TestImmutableValuesSwapOutOnce(t *testing.T) {
	// A value used early and late must be swapped out at most once even if
	// evicted twice (host copy persists).
	g := trainChain(t, 12, 1000)
	full, _ := Plan(g, 0, 1<<40, Options{})
	res, err := Plan(g, 0, full.PeakBytes*2/3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Swap-out traffic can never exceed one copy of every node output.
	if res.SwapOutBytes > g.TotalMem() {
		t.Fatalf("swap-out %d exceeds one copy of all values %d", res.SwapOutBytes, g.TotalMem())
	}
}

func TestOverlapReducesExposedTime(t *testing.T) {
	g := trainChain(t, 10, 1000)
	full, _ := Plan(g, 0, 1<<40, Options{})
	a, err := Plan(g, 0, full.PeakBytes/2, Options{Overlap: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(g, 0, full.PeakBytes/2, Options{Overlap: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if b.TransferTime >= a.TransferTime {
		t.Fatalf("overlap did not reduce exposed transfer time: %v vs %v", b.TransferTime, a.TransferTime)
	}
}

// TestRematerializationBeatsOffloadOnCheapLayers reproduces the paper's
// Related Work argument: when recomputation is cheap relative to PCIe
// transfers (large activations, fast kernels), the ILP's rematerialization
// schedule costs less total time than swapping.
func TestRematerializationBeatsOffloadOnCheapLayers(t *testing.T) {
	// 8 layers, 64 MiB activations, 0.1 ms kernels: recompute ≪ transfer.
	g := trainChain(t, 8, 64<<20)
	for i := 0; i < g.Len(); i++ {
		g.SetCost(graph.NodeID(i), 1e-4)
	}
	full, _ := Plan(g, 0, 1<<50, Options{})
	budget := full.PeakBytes / 2

	off, err := Plan(g, 0, budget, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveILPCtx(context.Background(), core.Instance{G: g, Budget: budget}, core.SolveOptions{TimeLimit: 15 * time.Second, RelGap: 0.05})
	if err != nil || res.Sched == nil {
		t.Fatalf("ILP failed: %v", err)
	}
	remat := res.Cost // seconds of (re)compute
	if remat >= off.TotalTime {
		t.Fatalf("rematerialization (%.4fs) should beat offload (%.4fs) on cheap kernels", remat, off.TotalTime)
	}
	if math.IsNaN(off.TotalTime) {
		t.Fatal("NaN offload time")
	}
}

// TestOffloadCanWinOnExpensiveKernels: the converse crossover — very
// expensive kernels with small activations favour swapping.
func TestOffloadCanWinOnExpensiveKernels(t *testing.T) {
	// Tiny 4 KiB activations, 50 ms kernels: transfer ≈ free, recompute dear.
	g := trainChain(t, 8, 4<<10)
	for i := 0; i < g.Len(); i++ {
		g.SetCost(graph.NodeID(i), 50e-3)
	}
	full, _ := Plan(g, 0, 1<<50, Options{})
	budget := full.PeakBytes * 6 / 10

	off, err := Plan(g, 0, budget, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveILPCtx(context.Background(), core.Instance{G: g, Budget: budget}, core.SolveOptions{TimeLimit: 15 * time.Second, RelGap: 0.05})
	if err != nil || res.Sched == nil {
		t.Fatalf("ILP failed: %v", err)
	}
	extraRemat := res.Cost - g.TotalCost() // recomputation time beyond ideal
	extraOff := off.TotalTime - off.ComputeTime
	if extraRemat > 0 && extraOff >= extraRemat {
		t.Fatalf("offload overhead %.6fs should undercut remat overhead %.6fs here", extraOff, extraRemat)
	}
}
