package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/kepler"
	"repro/internal/sim"
	"repro/internal/suites"
)

// warmPrograms are the 20 clock-insensitive programs whose K20c-default
// launch traces frontier-warm and serve-fleet capture in set-up.
var warmPrograms = []string{"EIP", "EP", "NB", "SC", "BH", "CUTCP", "LBM", "MRIQ", "SAD", "SGEMM",
	"STEN", "GE", "MUM", "NN", "NW", "PF", "FFT", "MF", "MD", "S2D"}

// memBroker is an in-memory core.TraceBroker: set-up captures publish into
// it, and later runners replay from it instead of simulating.
type memBroker struct {
	mu     sync.Mutex
	traces map[string]*sim.LaunchTrace
}

func brokerKey(device, program, input string) string { return device + "/" + program + "/" + input }

func (b *memBroker) FetchTrace(device, program, input string) *sim.LaunchTrace {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.traces[brokerKey(device, program, input)]
}

func (b *memBroker) StoreTrace(device, program, input string, tr *sim.LaunchTrace) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.traces[brokerKey(device, program, input)] = tr
}

// warmSet is the shared set-up of the warm workloads: the programs, the
// K20c dense grid in frontier.Sweep's dense-path order, and the captured
// default-config traces.
type warmSet struct {
	progs  []core.Program
	grid   []kepler.Clocks
	broker *memBroker
	traces []*sim.LaunchTrace
	want   map[core.Suite]*check.GoldenFile
}

// newWarmSet resolves the programs and the grid, captures every program's
// launch trace at the default configuration (one cold Runner, programs
// measured in parallel) and refuses a clock-sensitive trace.
func newWarmSet(ctx context.Context, root string) (*warmSet, error) {
	ws := &warmSet{broker: &memBroker{traces: map[string]*sim.LaunchTrace{}}}
	for _, name := range warmPrograms {
		p, err := suites.ByName(name)
		if err != nil {
			return nil, err
		}
		ws.progs = append(ws.progs, p)
	}
	dev := kepler.K20cDevice()
	grid, err := dev.Grid(dev.DefaultGrid())
	if err != nil {
		return nil, err
	}
	def := dev.DefaultConfig()
	ws.grid = []kepler.Clocks{def}
	for _, row := range kepler.GridRows(grid) {
		for _, clk := range row {
			if clk.Name != def.Name {
				ws.grid = append(ws.grid, clk)
			}
		}
	}

	r := core.NewRunner()
	r.Broker = ws.broker
	combos := core.EnumerateCombos(ws.progs, []kepler.Clocks{def}, false)
	if err := r.MeasureList(ctx, combos); err != nil {
		return nil, fmt.Errorf("capturing traces: %w", err)
	}
	for _, p := range ws.progs {
		tr := ws.broker.FetchTrace(dev.Name, p.Name(), p.DefaultInput())
		switch {
		case tr == nil:
			return nil, fmt.Errorf("no trace captured for %s", p.Name())
		case tr.ClockSensitive():
			return nil, fmt.Errorf("%s trace is clock-sensitive: %s", p.Name(), tr.SensitiveReason())
		}
		ws.traces = append(ws.traces, tr)
	}

	golden, err := check.LoadGoldenDir(filepath.Join(root, goldenDir))
	if err != nil {
		return nil, fmt.Errorf("loading golden corpus: %w", err)
	}
	ws.want = filterGolden(golden, ws.progs, kepler.Configs)
	return ws, nil
}

// combos is the number of (program, grid config) combinations.
func (ws *warmSet) combos() int { return len(ws.progs) * len(ws.grid) }

// pointBits is one measured point, bit for bit.
type pointBits [5]uint64

func bitsOf(res *core.Result, err error) pointBits {
	if res == nil {
		if core.IsInsufficient(err) {
			return pointBits{1}
		}
		return pointBits{2}
	}
	return pointBits{
		math.Float64bits(res.TrueActiveTime), math.Float64bits(res.TrueEnergy),
		math.Float64bits(res.ActiveTime), math.Float64bits(res.Energy), math.Float64bits(res.AvgPower),
	}
}

// frontierWarm prices the full 99-config K20c grid for the 20 programs on a
// fresh Runner whose broker serves the set-up traces from memory, then
// calls frontier.Sweep per program on the warm cache. No kernel body runs.
type frontierWarm struct {
	cfg   config
	ws    *warmSet
	r     *core.Runner
	order []int
	costs []time.Duration
	ref   []pointBits
	got   []pointBits
}

func newFrontierWarm(cfg config) *frontierWarm { return &frontierWarm{cfg: cfg} }

func (w *frontierWarm) setup(ctx context.Context) error {
	ws, err := newWarmSet(ctx, w.cfg.root)
	if err != nil {
		return err
	}
	w.ws = ws
	if w.order == nil {
		w.order = newRNG(w.cfg.seed, 1).Perm(len(ws.progs))
	}
	return nil
}

func (w *frontierWarm) reset(ctx context.Context) error {
	w.r = core.NewRunner()
	w.r.Broker = w.ws.broker
	return nil
}

func (w *frontierWarm) pass(ctx context.Context, tr *tracer, root int64) (*passResult, error) {
	ws := w.ws
	nc := len(ws.grid)
	lat := make([]time.Duration, ws.combos())
	w.got = make([]pointBits, ws.combos())
	costs := make([]time.Duration, len(ws.progs))
	failed := make([]int, len(ws.progs))
	start := time.Now()
	runClients(w.cfg.clients, len(w.order), func(_, k int) {
		pi := w.order[k]
		p := ws.progs[pi]
		t0 := time.Now()
		for ci, clk := range ws.grid {
			id := pi*nc + ci
			sp := tr.start(spanMeasure, root, int64(id))
			t1 := time.Now()
			res, err := w.r.Measure(ctx, p, p.DefaultInput(), clk)
			lat[id] = time.Since(t1)
			sp.end()
			if err != nil && !core.IsInsufficient(err) {
				failed[pi]++
			}
			w.got[id] = bitsOf(res, err)
		}
		sp := tr.start("frontier.Sweep", root, int64(pi))
		if _, err := frontier.Sweep(ctx, w.r, p, frontier.Options{}); err != nil {
			failed[pi]++
		}
		sp.end()
		costs[pi] = time.Since(t0)
	})
	pr := &passResult{wall: time.Since(start), ops: ws.combos(), lat: map[string][]time.Duration{"op": lat}}
	for _, f := range failed {
		pr.failed += f
	}
	pr.counts = runnerCounts(w.r)
	w.costs = costs
	return pr, nil
}

func (w *frontierWarm) plan(seed uint64) { w.order = costOrder(w.costs, newRNG(seed, 2)) }

// verify requires every point to be bit-identical to the first pass's and
// the canonical configurations to match the golden corpus.
func (w *frontierWarm) verify(ctx context.Context) ([]string, error) {
	if w.ref == nil {
		w.ref = w.got
	}
	var out []string
	nc := len(w.ws.grid)
	for id, b := range w.got {
		if b != w.ref[id] {
			out = append(out, fmt.Sprintf("%s@%s differs from the first pass",
				w.ws.progs[id/nc].Name(), w.ws.grid[id%nc].Name))
		}
	}
	got, err := check.Snapshot(ctx, w.r, w.ws.progs, kepler.Configs)
	if err != nil {
		return nil, err
	}
	return append(out, diffGolden(w.ws.want, got)...), nil
}

func (w *frontierWarm) minSamples() map[string]int { return map[string]int{"op": 1000} }

// layers replays every combination of the traced pass from the set-up
// traces and prices it through the measurement stack.
func (w *frontierWarm) layers(ctx context.Context, tr *tracer, pl *perLayer) error {
	ws := w.ws
	x := newReexec(tr, w.cfg.clients)
	nc := len(ws.grid)
	root := tr.start("reexec", 0, -1)
	errs := make([]error, len(ws.progs))
	runClients(w.cfg.clients, len(w.order), func(_, k int) {
		pi := w.order[k]
		p := ws.progs[pi]
		for ci, clk := range ws.grid {
			id := int64(pi*nc + ci)
			dev, err := x.replay(root.id(), id, ws.traces[pi], clk)
			if err != nil {
				errs[pi] = err
				return
			}
			x.price(root.id(), id, dev, lookup(w.r, p, clk))
		}
	})
	root.end()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	pl.set("frontier.sweep_s", tr.total("frontier.Sweep").Seconds())
	return x.finish(pl, spanMeasure, ws.traces, w.r, w.cfg.out)
}

func (w *frontierWarm) close() {}
