package schedule

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	g := chainGraph(6)
	s := core.CheckpointAll(g)
	p, err := Generate(g, s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadPlanJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRegs != p.NumRegs || len(q.Stmts) != len(p.Stmts) {
		t.Fatalf("shape mismatch after round trip")
	}
	for i := range p.Stmts {
		if p.Stmts[i] != q.Stmts[i] {
			t.Fatalf("stmt %d: %v != %v", i, p.Stmts[i], q.Stmts[i])
		}
	}
	// The decoded plan must simulate identically.
	a, err := Simulate(g, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(g, q, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.PeakBytes != b.PeakBytes || a.TotalCost != b.TotalCost {
		t.Fatal("round-tripped plan behaves differently")
	}
}

func TestPlanJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		`{`,
		`{"version":99}`,
		`{"version":1,"num_regs":1,"reg_node":[0],"stmts":[{"k":"x","n":0,"r":0}]}`,
		`{"version":1,"num_regs":1,"reg_node":[0],"stmts":[{"k":"c","n":0,"r":5}]}`,
	}
	for i, c := range cases {
		if _, err := ReadPlanJSON(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestSchedJSONRoundTrip(t *testing.T) {
	g := chainGraph(5)
	s := core.CheckpointAll(g)
	var buf bytes.Buffer
	if err := WriteSchedJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	q, err := ReadSchedJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.N != s.N {
		t.Fatal("size mismatch")
	}
	for t2 := 0; t2 < s.N; t2++ {
		for i := 0; i < s.N; i++ {
			if q.R[t2][i] != s.R[t2][i] || q.S[t2][i] != s.S[t2][i] {
				t.Fatalf("matrix mismatch at (%d,%d)", t2, i)
			}
		}
	}
	if err := q.Validate(g, true); err != nil {
		t.Fatal(err)
	}
	if q.Cost(g) != s.Cost(g) || q.Peak(g, 3) != s.Peak(g, 3) {
		t.Fatal("accounting differs after round trip")
	}
}

func TestSchedJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		`{"version":1,"n":2,"edges":1,"r":["10"],"s":["00","00"],"free":["0","0"]}`,
		`{"version":1,"n":1,"edges":0,"r":["2"],"s":["0"],"free":[""]}`,
		`{"version":7,"n":0,"edges":0}`,
	}
	for i, c := range cases {
		if _, err := ReadSchedJSON(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// outOfRangePlans name nodes or registers outside what a one-node graph and
// the plan's own statements allow.
var outOfRangePlans = []string{
	`{"version":1,"num_regs":1,"reg_node":[7],"stmts":[{"k":"a","n":7,"r":0},{"k":"c","n":7,"r":0}]}`,
	`{"version":1,"num_regs":1,"reg_node":[0],"stmts":[{"k":"a","n":-3,"r":0}]}`,
	`{"version":1,"num_regs":-1}`,
	`{"version":1,"num_regs":1,"stmts":[{"k":"a","n":0,"r":0},{"k":"c","n":0,"r":0},{"k":"d","r":0}]}`,
	`{"version":1,"num_regs":1,"reg_node":[-1],"stmts":[{"k":"a","n":0,"r":0},{"k":"d","r":0}]}`,
}

// TestPlanDecodeRejectsOutOfRange: such a plan is an error from ReadPlanJSON
// or from Simulate, never a panic.
func TestPlanDecodeRejectsOutOfRange(t *testing.T) {
	g := chainGraph(1)
	for i, c := range outOfRangePlans {
		p, err := ReadPlanJSON(strings.NewReader(c))
		if err != nil {
			continue
		}
		if _, err := Simulate(g, p, 0); err == nil {
			t.Fatalf("case %d: %s simulated without error", i, c)
		}
	}
}

// FuzzReadPlanJSON: a decoded plan re-encodes to the same plan, and
// simulating it against a small graph errors or succeeds without panicking.
func FuzzReadPlanJSON(f *testing.F) {
	for _, c := range outOfRangePlans {
		f.Add([]byte(c))
	}
	var buf bytes.Buffer
	if err := mustGenerate(f, chainGraph(3)).WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	g := chainGraph(3)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlanJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		q, err := ReadPlanJSON(&buf)
		if err != nil {
			t.Fatalf("re-encoded plan does not decode: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("plan changed across a round trip:\n%+v\n%+v", p, q)
		}
		_, _ = Simulate(g, p, 0) // an error is a valid outcome; a panic fails
	})
}

func mustGenerate(t testing.TB, g *graph.Graph) *Plan {
	t.Helper()
	p, err := Generate(g, core.CheckpointAll(g))
	if err != nil {
		t.Fatal(err)
	}
	return p
}
