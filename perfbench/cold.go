package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/sim"
	"repro/internal/suites"
)

// goldenDir is the golden corpus, relative to the repository root.
const goldenDir = "internal/check/testdata/golden"

// goldenTol is the golden test's relative tolerance.
const goldenTol = 1e-9

// coldSweep measures the default input of every one of the paper's 34
// programs at the K20c default configuration on a fresh Runner: one cold
// simulation per program, the clock-sensitive ones on the ordered path.
// Clients submit one combination at a time through Runner.MeasureList, so
// worker-pool semantics match MeasureAll.
type coldSweep struct {
	cfg config
	clk kepler.Clocks
	// registry lists the programs to sweep (suites.All).
	registry func() []core.Program
	progs    []core.Program
	want     map[core.Suite]*check.GoldenFile
	r        *core.Runner
	order    []int
	costs    []time.Duration
}

func newColdSweep(cfg config) *coldSweep {
	return &coldSweep{cfg: cfg, clk: kepler.Configs[0], registry: suites.All}
}

// setup builds the program registry, loads the golden corpus the results are
// checked against, and builds a runner.
func (w *coldSweep) setup(ctx context.Context) error {
	w.progs = w.registry()
	golden, err := check.LoadGoldenDir(filepath.Join(w.cfg.root, goldenDir))
	if err != nil {
		return fmt.Errorf("loading golden corpus: %w", err)
	}
	w.want = filterGolden(golden, w.progs, []kepler.Clocks{w.clk})
	w.r = core.NewRunner()
	if w.order == nil {
		w.order = newRNG(w.cfg.seed, 1).Perm(len(w.progs))
	}
	return nil
}

func (w *coldSweep) reset(ctx context.Context) error {
	w.r = core.NewRunner()
	return nil
}

func (w *coldSweep) pass(ctx context.Context, tr *tracer, root int64) (*passResult, error) {
	n := len(w.progs)
	lat := make([]time.Duration, n)
	errs := make([]error, n)
	start := time.Now()
	runClients(w.cfg.clients, n, func(_, k int) {
		i := w.order[k]
		p := w.progs[i]
		sp := tr.start(spanMeasureList, root, int64(i))
		t0 := time.Now()
		errs[i] = w.r.MeasureList(ctx, []core.Combo{{Program: p, Input: p.DefaultInput(), Clocks: w.clk}})
		lat[i] = time.Since(t0)
		sp.end()
	})
	pr := &passResult{wall: time.Since(start), ops: n, lat: map[string][]time.Duration{"op": lat}}
	for _, err := range errs {
		if err != nil {
			pr.failed++
		}
	}
	pr.counts = runnerCounts(w.r)
	w.costs = lat
	return pr, nil
}

func (w *coldSweep) plan(seed uint64) { w.order = costOrder(w.costs, newRNG(seed, 2)) }

// verify diffs the pass's results against the golden corpus.
func (w *coldSweep) verify(ctx context.Context) ([]string, error) {
	got, err := check.Snapshot(ctx, w.r, w.progs, []kepler.Clocks{w.clk})
	if err != nil {
		return nil, err
	}
	return diffGolden(w.want, got), nil
}

func (w *coldSweep) minSamples() map[string]int { return map[string]int{"op": 100} }

// layers re-simulates every program exactly as the traced pass's cold
// measurements did and prices each device through the measurement stack.
func (w *coldSweep) layers(ctx context.Context, tr *tracer, pl *perLayer) error {
	x := newReexec(tr, w.cfg.clients)
	traces := make([]*sim.LaunchTrace, len(w.progs))
	errs := make([]error, len(w.progs))
	root := tr.start("reexec", 0, -1)
	runClients(w.cfg.clients, len(w.order), func(_, k int) {
		i := w.order[k]
		p := w.progs[i]
		dev, trc, err := x.simulate(ctx, root.id(), int64(i), p, p.DefaultInput(), w.clk)
		if err != nil {
			errs[i] = err
			return
		}
		traces[i] = trc
		x.price(root.id(), int64(i), dev, lookup(w.r, p, w.clk))
	})
	root.end()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return x.finish(pl, spanMeasureList, traces, w.r, w.cfg.out)
}

func (w *coldSweep) close() {}

// lookup returns the runner's resolved result for one combination, or nil
// for an exclusion or a missing entry.
func lookup(r *core.Runner, p core.Program, clk kepler.Clocks) *core.Result {
	e, ok := r.Lookup(p.Name(), p.DefaultInput(), clk.Name, clk.Device().Name)
	if !ok {
		return nil
	}
	return e.Result
}

// filterGolden keeps the golden entries of the given programs (default
// inputs) at the given configurations.
func filterGolden(golden map[core.Suite]*check.GoldenFile, progs []core.Program, configs []kepler.Clocks) map[core.Suite]*check.GoldenFile {
	keep := map[string]bool{}
	for _, p := range progs {
		for _, clk := range configs {
			keep[p.Name()+"\x00"+p.DefaultInput()+"\x00"+clk.Name] = true
		}
	}
	out := map[core.Suite]*check.GoldenFile{}
	for suite, gf := range golden {
		f := &check.GoldenFile{StoreVersion: gf.StoreVersion, Suite: gf.Suite}
		for _, e := range gf.Entries {
			if keep[e.Program+"\x00"+e.Input+"\x00"+e.Config] {
				f.Entries = append(f.Entries, e)
			}
		}
		if len(f.Entries) > 0 {
			out[suite] = f
		}
	}
	return out
}

// diffGolden compares snapshots suite by suite at the golden test's
// tolerance; each divergent metric or combination is one mismatch.
func diffGolden(want, got map[core.Suite]*check.GoldenFile) []string {
	var out []string
	for _, suite := range core.Suites {
		w, g := want[suite], got[suite]
		switch {
		case w == nil && g == nil:
		case w == nil || g == nil:
			out = append(out, fmt.Sprintf("%s: suite missing from golden=%v current=%v", suite, w == nil, g == nil))
		default:
			for _, d := range check.DiffGolden(w, g, goldenTol) {
				out = append(out, fmt.Sprintf("%s: %s", suite, d))
			}
		}
	}
	return out
}
