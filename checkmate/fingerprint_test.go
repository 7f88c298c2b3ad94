package checkmate

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/graph"
)

func TestWorkloadFingerprint(t *testing.T) {
	a, err := Load("mobilenet", Options{Batch: 2, CoarseSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load("mobilenet", Options{Batch: 2, CoarseSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("rebuilding the same workload changed its fingerprint")
	}
	c, err := Load("mobilenet", Options{Batch: 4, CoarseSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatalf("different batch sizes share a fingerprint")
	}
}

func TestRequestKey(t *testing.T) {
	wl, err := Load("mobilenet", Options{Batch: 2, CoarseSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Workload: wl, Budget: 1 << 30, TimeLimit: time.Minute}
	base := req.Key()
	if base != req.Key() {
		t.Fatalf("Key not deterministic")
	}
	with := func(edit func(*Request)) graph.Fingerprint {
		r := req
		edit(&r)
		return r.Key()
	}
	if base == with(func(r *Request) { r.Budget = 1 << 31 }) {
		t.Fatalf("budget not part of the key")
	}
	if base == with(func(r *Request) { r.Method = Approx }) {
		t.Fatalf("solver kind not part of the key")
	}
	if base == with(func(r *Request) { r.RelGap = 0.05 }) {
		t.Fatalf("RelGap not part of the key")
	}
	if base != with(func(r *Request) { r.Method = Optimal }) {
		t.Fatalf("the default method and explicit Optimal key differently")
	}
	if base == wl.Fingerprint() {
		t.Fatalf("Key must differ from the bare workload fingerprint")
	}
}

func TestSolveCtxCancellation(t *testing.T) {
	wl, err := Load("mobilenet", Options{Batch: 2, CoarseSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Method{Optimal, Approx} {
		if _, err := Solve(ctx, Request{Workload: wl, Method: m, Budget: 1 << 30}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Solve err = %v, want context.Canceled", m, err)
		}
	}
}
