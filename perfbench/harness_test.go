package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/suites"
)

func ms(xs ...int) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = time.Duration(x) * time.Millisecond
	}
	return out
}

func seq(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[n-1-i] = time.Duration(i+1) * time.Millisecond // descending: percentile must sort
	}
	return out
}

// TestPercentileRule pins the reporting rule: nearest rank, reported only
// with at least ten samples beyond the percentile.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n, pm int
		want  time.Duration
		ok    bool
	}{
		{20, 500, 10 * time.Millisecond, true},
		{19, 500, 0, false},
		{100, 900, 90 * time.Millisecond, true},
		{99, 900, 0, false},
		{1000, 990, 990 * time.Millisecond, true},
		{999, 990, 0, false},
		{10000, 999, 9990 * time.Millisecond, true},
		{9999, 999, 0, false},
		{0, 500, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.pm)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(%d samples, %d‰) = %v, %v; want %v, %v", c.n, c.pm, got, ok, c.want, c.ok)
		}
	}
	for n, want := range map[int]int{0: 0, 19: 0, 20: 500, 99: 500, 100: 900, 999: 900, 1000: 990, 10000: 999} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %d, want %d", n, got, want)
		}
	}
	if got := median(ms(5, 1, 3)); got != 3*time.Millisecond {
		t.Errorf("median of odd set = %v", got)
	}
	if got := median(ms(4, 1, 3, 2)); got != 2500*time.Microsecond {
		t.Errorf("median of even set = %v", got)
	}
}

func sp(start, end int) span {
	return span{Start: time.Duration(start), End: time.Duration(end)}
}

// TestSelfTime checks the self-time arithmetic: the parent's duration less
// the union of its children's intervals clipped to it.
func TestSelfTime(t *testing.T) {
	parent := sp(0, 100)
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(10, 20), sp(50, 70)}, 70},
		{"overlapping", []span{sp(10, 30), sp(20, 50)}, 60},
		{"nested", []span{sp(10, 60), sp(20, 30), sp(40, 50)}, 50},
		{"identical", []span{sp(10, 40), sp(10, 40)}, 70},
		{"sticking out", []span{sp(-10, 10), sp(90, 130)}, 80},
		{"outside", []span{sp(100, 120), sp(-20, 0)}, 100},
		{"covering", []span{sp(-5, 105)}, 0},
		{"unsorted overlap chain", []span{sp(60, 80), sp(10, 30), sp(25, 65)}, 30},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestTracerNilIsInert checks untraced runs record nothing.
func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	s := tr.start("x", 0, 1)
	s.end()
	if s.id() != 0 || tr.total("x") != 0 || tr.named("x") != nil {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.start("root", 0, -1)
	child := tr.start("child", root.id(), 7)
	child.end()
	root.end()
	got := tr.named("child")
	if len(got) != 1 || got[0].Parent != root.id() || got[0].Req != 7 || got[0].End < got[0].Start {
		t.Errorf("child span = %+v", got)
	}
}

// TestSequenceDeterminism checks that the seed alone fixes the request
// sequence, and that the sequence has the promised shape.
func TestSequenceDeterminism(t *testing.T) {
	computeProgs, sweepProgs := []int{0, 2, 4}, []int{1, 3}
	a := fleetSequence(7, computeProgs, sweepProgs, 99)
	b := fleetSequence(7, computeProgs, sweepProgs, 99)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different sequences")
	}
	if reflect.DeepEqual(a, fleetSequence(8, computeProgs, sweepProgs, 99)) {
		t.Error("different seeds gave the same sequence")
	}
	keys := map[[2]int]bool{}
	sweeps := 0
	for i, tk := range a {
		if tk.kind == taskSweep {
			sweeps++
			continue
		}
		k := [2]int{tk.prog, tk.cfg}
		if keys[k] {
			t.Errorf("key %v computed twice", k)
		}
		keys[k] = true
		for _, j := range tk.reads {
			if j > i || a[j].kind != taskCompute {
				t.Errorf("task %d reads task %d, which is not an earlier compute", i, j)
			}
		}
	}
	if len(keys) != len(computeProgs)*99 || sweeps != len(sweepProgs) {
		t.Errorf("%d computes and %d sweeps", len(keys), sweeps)
	}

	costs := ms(1, 900, 3, 850, 40, 2, 35)
	o1 := costOrder(costs, newRNG(5, 2))
	if !reflect.DeepEqual(o1, costOrder(costs, newRNG(5, 2))) {
		t.Error("same seed gave different cost orders")
	}
	if c0, c1 := costs[o1[0]], costs[o1[1]]; c0 < 800*time.Millisecond || c1 < 800*time.Millisecond {
		t.Errorf("cost order does not start with the longest items: %v", o1)
	}
}

// TestDiffResultsCountsCorruption checks the fleet gate: one corrupted
// entry of a /v1/results body is one mismatch.
func TestDiffResultsCountsCorruption(t *testing.T) {
	entries := []core.ResultEntry{
		{Program: "A", Config: "default", Result: &core.Result{Energy: 1}},
		{Program: "B", Config: "default", Insufficient: true},
	}
	want, _ := json.Marshal(entries)
	entries[0].Result.Energy = 1.0000001
	got, _ := json.Marshal(entries)
	if d := diffResults(want, got); len(d) != 1 {
		t.Errorf("diffResults found %d mismatches, want 1: %v", len(d), d)
	}
}

// coldRun runs the cold-sweep harness end to end on one cheap program
// against the golden corpus under root.
func coldRun(t *testing.T, root string) *report {
	t.Helper()
	cfg := config{workload: "cold-sweep", seed: 3, seconds: 0.01, root: root, out: t.TempDir(), clients: 2, log: io.Discard}
	w := newColdSweep(cfg)
	w.registry = func() []core.Program {
		p, err := suites.ByName("NN")
		if err != nil {
			t.Fatal(err)
		}
		return []core.Program{p}
	}
	rep, err := run(context.Background(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestNegativeControl corrupts one reference result in a copy of the golden
// corpus: the run must count the mismatch as a failed operation and fail.
func TestNegativeControl(t *testing.T) {
	if rep := coldRun(t, ".."); !rep.Correct || rep.Failed != 0 {
		t.Fatalf("clean run: correct=%v failed=%d", rep.Correct, rep.Failed)
	}

	golden, err := check.LoadGoldenDir(filepath.Join("..", goldenDir))
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, gf := range golden {
		for i, e := range gf.Entries {
			if e.Program == "NN" && e.Config == "default" {
				gf.Entries[i].Energy *= 1.01
				corrupted++
			}
		}
	}
	if corrupted != 1 {
		t.Fatalf("found %d NN default entries, want 1", corrupted)
	}
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, goldenDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := check.WriteGoldenDir(filepath.Join(root, goldenDir), golden); err != nil {
		t.Fatal(err)
	}
	rep := coldRun(t, root)
	if rep.Correct || rep.Failed < 1 {
		t.Errorf("corrupted reference: correct=%v failed=%d, want a failed run", rep.Correct, rep.Failed)
	}
}

// TestLedgerDetectsDrift checks that a work count differing from an earlier
// run of the same sources, workload and seed fails the run, while keys only
// one run recorded are merged rather than compared.
func TestLedgerDetectsDrift(t *testing.T) {
	cfg := config{workload: "frontier-warm", seed: 9, out: t.TempDir()}
	g := &gate{}
	if err := g.ledger(cfg, "src", map[string]int64{"sim.replays": 1980, "sim.blocks": 0}); err != nil {
		t.Fatal(err)
	}
	if err := g.ledger(cfg, "src", map[string]int64{"sim.replays": 1980, "core.captures": 0}); err != nil {
		t.Fatal(err)
	}
	if g.mismatches != 0 {
		t.Fatalf("repeated counts reported %d mismatches: %v", g.mismatches, g.lines)
	}
	if err := g.ledger(cfg, "src", map[string]int64{"sim.replays": 1979}); err != nil {
		t.Fatal(err)
	}
	if g.mismatches != 1 {
		t.Errorf("drifted count reported %d mismatches, want 1: %v", g.mismatches, g.lines)
	}
	if err := g.ledger(config{workload: "frontier-warm", seed: 10, out: cfg.out}, "src", map[string]int64{"sim.replays": 5}); err != nil {
		t.Fatal(err)
	}
	if g.mismatches != 1 {
		t.Errorf("another seed's ledger was compared: %v", g.lines)
	}
}
