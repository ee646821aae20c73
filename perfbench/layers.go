package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/k20power"
	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/sim"
)

// layerMetrics lists every per-layer metric a traced run reports, with its
// unit. A layer a workload never reaches reports 0; a percentile with too few
// samples beyond it reports 0 and is named in the run's meta line.
var layerMetrics = []struct{ name, unit string }{
	{"latency_ms.p50", "ms"}, {"latency_ms.p90", "ms"}, {"latency_ms.p99", "ms"},
	{"sweep_ms.p50", "ms"}, {"sweep_ms.p90", "ms"},
	{"sim.exec_s", "s"}, {"sim.exec_s.sensitive", "s"}, {"sim.blocks", "count"},
	{"sim.warp_slots", "count"}, {"sim.ns_per_warp_slot", "ns"},
	{"sim.replays", "count"}, {"sim.replay_s", "s"}, {"sim.replay_us.p50", "us"}, {"sim.replay_us.p99", "us"},
	{"sim.trace_bytes", "bytes"}, {"sim.codec_encode_mb_per_s", "MB/s"}, {"sim.codec_decode_mb_per_s", "MB/s"},
	{"power.timeline_s", "s"}, {"power.energy_s", "s"}, {"power.attrib_us_per_launch", "us"},
	{"sensor.record_s", "s"}, {"sensor.samples", "count"}, {"sensor.ns_per_sample", "ns"},
	{"k20power.analyze_s", "s"}, {"k20power.ns_per_sample", "ns"},
	{"core.self_s", "s"}, {"core.measure_ms.p50", "ms"}, {"core.measure_ms.p90", "ms"},
	{"core.simulations", "count"}, {"core.captures", "count"}, {"core.cache_hits", "count"},
	{"core.singleflight_waits", "count"}, {"core.store_save_s", "s"}, {"core.store_load_s", "s"},
	{"serve.read_ms.p50", "ms"}, {"serve.compute_ms.p50", "ms"}, {"serve.compute_ms.p90", "ms"},
	{"serve.standalone_ms.p50", "ms"}, {"serve.proxy_ms.p50", "ms"}, {"serve.shards", "count"},
	{"serve.redispatches", "count"}, {"serve.broker_fetches", "count"}, {"serve.fleet_start_s", "s"},
	{"frontier.sweep_s", "s"}, {"frontier.optimizer_evals", "count"},
	{"proc.cpu_util", "ratio"}, {"proc.alloc_mb", "MB"}, {"proc.gc_cycles", "count"}, {"proc.max_rss_mb", "MB"},
	{"bench.reset_s", "s"}, {"bench.unattributed_s", "s"}, {"bench.trace_overhead", "ratio"},
}

// perLayer collects a traced run's per-layer values and the re-execution's
// work counts, which join the run's ledger.
type perLayer struct {
	vals   map[string]float64
	counts map[string]int64
	// mismatches are re-executions that did not reproduce the measured
	// result; each fails the run like any other gate mismatch.
	mismatches []string
	unreported []string
}

func newPerLayer() *perLayer {
	return &perLayer{vals: map[string]float64{}, counts: map[string]int64{}}
}

func (pl *perLayer) set(name string, v float64) { pl.vals[name] = v }

func (pl *perLayer) metrics() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{pl.vals[m.name], m.unit}
	}
	return out
}

// setPercentile reports percentile pm of samples under name in the given
// unit, or records name as unreported when too few samples lie beyond it.
func (pl *perLayer) setPercentile(name string, samples []time.Duration, pm int, unit time.Duration) {
	if len(samples) == 0 {
		return
	}
	v, ok := percentile(samples, pm)
	if !ok {
		pl.unreported = append(pl.unreported, fmt.Sprintf("%s (%d samples)", name, len(samples)))
		return
	}
	pl.set(name, float64(v)/float64(unit))
}

// latencies fills the client-side latency percentiles from the run's timed
// passes.
func (pl *perLayer) latencies(passes []*passResult) {
	pool := pooled(passes)
	for _, p := range []struct {
		name, kind string
		pm         int
	}{
		{"latency_ms.p50", "op", 500}, {"latency_ms.p90", "op", 900}, {"latency_ms.p99", "op", 990},
		{"sweep_ms.p50", "sweep", 500}, {"sweep_ms.p90", "sweep", 900},
		{"serve.read_ms.p50", "read", 500},
		{"serve.compute_ms.p50", "compute", 500}, {"serve.compute_ms.p90", "compute", 900},
	} {
		pl.setPercentile(p.name, pool[p.kind], p.pm, time.Millisecond)
	}
}

// Span names of the layers re-executed below Runner.Measure.
const (
	spanRunProgram  = "sim.RunProgram"
	spanReplay      = "sim.LaunchTrace.Replay"
	spanTimeline    = "power.Timeline"
	spanEnergy      = "power.ActiveEnergy"
	spanAttribute   = "power.Attribute"
	spanRecord      = "sensor.Record"
	spanAnalyze     = "k20power.Analyze"
	spanMeasure     = "core.Runner.Measure"
	spanMeasureList = "core.Runner.MeasureList"
)

// layerSpans are the re-executed layers inside Runner.Measure, whose time
// core.self_s excludes. power.Attribute is priced apart: Measure never calls it.
var layerSpans = []string{spanRunProgram, spanReplay, spanTimeline, spanEnergy, spanRecord, spanAnalyze}

// reexec re-executes the layers hidden inside Runner.Measure through their
// public functions, for the same combinations a pass measured, so the
// ledger prices the same work.
type reexec struct {
	tr   *tracer
	reps int
	pool *sim.WorkerPool

	mu       sync.Mutex
	samples  int64
	launches int64
	blocks   int64
	slots    int64
	simExec  time.Duration
	simSens  time.Duration
	sims     int64
	replays  int64
	failures []string
}

func newReexec(tr *tracer, clients int) *reexec {
	return &reexec{tr: tr, reps: core.NewRunner().Repetitions, pool: sim.NewWorkerPool(clients)}
}

// simulate runs the program on a fresh device with trace capture, exactly
// like a cold Measure's simulate stage, and returns the device and trace.
func (x *reexec) simulate(ctx context.Context, parent, req int64, p core.Program, input string, clk kepler.Clocks) (*sim.Device, *sim.LaunchTrace, error) {
	if err := x.pool.Acquire(ctx); err != nil {
		return nil, nil, err
	}
	defer x.pool.Release(1)
	dev := sim.NewDevice(clk)
	dev.SetWorkerPool(x.pool)
	dev.BeginCapture()
	sp := x.tr.start(spanRunProgram, parent, req)
	t0 := time.Now()
	err := core.RunProgram(ctx, p, dev, input)
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	trc := dev.EndCapture()
	var blocks, slots int64
	for _, l := range dev.Launches {
		blocks += int64(l.Grid)
		slots += l.Stats.Slots
	}
	x.mu.Lock()
	x.sims++
	x.simExec += d
	if trc.ClockSensitive() {
		x.simSens += d
	}
	x.blocks += blocks
	x.slots += slots
	x.mu.Unlock()
	return dev, trc, nil
}

// replay rebuilds the device from a captured trace, like a warm Measure.
func (x *reexec) replay(parent, req int64, trc *sim.LaunchTrace, clk kepler.Clocks) (*sim.Device, error) {
	sp := x.tr.start(spanReplay, parent, req)
	dev, err := trc.Replay(clk)
	sp.end()
	if err == nil {
		x.mu.Lock()
		x.replays++
		x.mu.Unlock()
	}
	return dev, err
}

// price runs the measurement stack on a completed device: the power
// timeline, energy and attribution, then Repetitions sensor recordings and
// K20Power analyses. It requires the device to reproduce the measured
// Result's ground truth bit for bit, so the ledger prices the same work.
//
// The runner perturbs each repetition's timeline with a private jitter
// (under 1% in duration) before recording; the re-execution records the
// unperturbed timeline, which draws the same number of samples to within
// that jitter.
func (x *reexec) price(parent, req int64, dev *sim.Device, want *core.Result) {
	sp := x.tr.start(spanTimeline, parent, req)
	segs := power.Timeline(dev)
	sp.end()
	sp = x.tr.start(spanEnergy, parent, req)
	energy := power.ActiveEnergy(dev)
	sp.end()
	sp = x.tr.start(spanAttribute, parent, req)
	power.Attribute(dev)
	sp.end()

	clk := dev.Clocks
	opt := k20power.DefaultOptions()
	opt.TailGuardW *= clk.Device().Power.EnergyScale
	var samples int64
	for rep := 0; rep < x.reps; rep++ {
		so := sensor.DefaultOptions(uint64(req)*31 + uint64(rep))
		so.SwitchW = clk.Device().Sensor.SwitchW
		so.NoiseSigmaW = clk.Device().Sensor.NoiseSigmaW
		so.DriftAmpW = clk.Device().Sensor.DriftAmpW
		sp = x.tr.start(spanRecord, parent, req)
		s := sensor.Record(segs, so)
		sp.end()
		sp = x.tr.start(spanAnalyze, parent, req)
		_, _ = k20power.Analyze(s, opt) // too few samples is the paper's exclusion, not a fault
		sp.end()
		samples += int64(len(s))
	}

	x.mu.Lock()
	defer x.mu.Unlock()
	x.samples += samples
	x.launches += int64(len(dev.Launches))
	if want != nil && (math.Float64bits(dev.ActiveTime()) != math.Float64bits(want.TrueActiveTime) ||
		math.Float64bits(energy) != math.Float64bits(want.TrueEnergy)) {
		x.failures = append(x.failures, fmt.Sprintf("re-executed %s@%s: active time %v energy %v, measured %v %v",
			want.Program, want.Config, dev.ActiveTime(), energy, want.TrueActiveTime, want.TrueEnergy))
	}
}

// fill writes the re-execution's layer totals into the per-layer ledger.
// measureSpan names the traced calls into the core whose time, less the
// re-executed layers', is core.self_s.
func (x *reexec) fill(pl *perLayer, measureSpan string) {
	tr := x.tr
	pl.set("sim.exec_s", x.simExec.Seconds())
	pl.set("sim.exec_s.sensitive", x.simSens.Seconds())
	pl.set("sim.blocks", float64(x.blocks))
	pl.set("sim.warp_slots", float64(x.slots))
	if x.slots > 0 {
		pl.set("sim.ns_per_warp_slot", float64(x.simExec.Nanoseconds())/float64(x.slots))
	}
	pl.set("sim.replay_s", tr.total(spanReplay).Seconds())
	pl.setPercentile("sim.replay_us.p50", tr.durations(spanReplay), 500, time.Microsecond)
	pl.setPercentile("sim.replay_us.p99", tr.durations(spanReplay), 990, time.Microsecond)
	pl.set("power.timeline_s", tr.total(spanTimeline).Seconds())
	pl.set("power.energy_s", tr.total(spanEnergy).Seconds())
	if x.launches > 0 {
		pl.set("power.attrib_us_per_launch", tr.total(spanAttribute).Seconds()*1e6/float64(x.launches))
	}
	record, analyze := tr.total(spanRecord), tr.total(spanAnalyze)
	pl.set("sensor.record_s", record.Seconds())
	pl.set("sensor.samples", float64(x.samples))
	pl.set("k20power.analyze_s", analyze.Seconds())
	if x.samples > 0 {
		pl.set("sensor.ns_per_sample", float64(record.Nanoseconds())/float64(x.samples))
		pl.set("k20power.ns_per_sample", float64(analyze.Nanoseconds())/float64(x.samples))
	}
	var layers time.Duration
	for _, name := range layerSpans {
		layers += tr.total(name)
	}
	pl.set("core.self_s", tr.total(measureSpan).Seconds()-layers.Seconds())
	pl.setPercentile("core.measure_ms.p50", tr.durations(measureSpan), 500, time.Millisecond)
	pl.setPercentile("core.measure_ms.p90", tr.durations(measureSpan), 900, time.Millisecond)
	pl.mismatches = append(pl.mismatches, x.failures...)

	pl.counts["reexec.simulations"] = x.sims
	pl.counts["reexec.replays"] = x.replays
	pl.counts["reexec.launches"] = x.launches
	pl.counts["sim.blocks"] = x.blocks
	pl.counts["sim.warp_slots"] = x.slots
	pl.counts["sensor.samples"] = x.samples
}

// finish fills the per-layer ledger from the re-execution, then times the
// trace codec on the workload's traces and a store round trip of the pass's
// runner under out.
func (x *reexec) finish(pl *perLayer, measureSpan string, traces []*sim.LaunchTrace, r *core.Runner, out string) error {
	x.fill(pl, measureSpan)
	if err := codecRoundTrip(x.tr, traces, pl); err != nil {
		return err
	}
	return storeRoundTrip(x.tr, filepath.Join(out, "tmp"), r, pl)
}

// runnerCounts reads the work counters of one or more runners, summed.
func runnerCounts(rs ...*core.Runner) map[string]int64 {
	names := map[string]string{
		"simulate_runs_device_K20c":  "core.simulations",
		"trace_cache_captures":       "core.captures",
		"trace_cache_replays":        "sim.replays",
		"trace_cache_sensitive_runs": "core.sensitive_runs",
		"measure_cache_hits":         "core.cache_hits",
		"measure_cache_misses":       "core.cache_misses",
		"measure_singleflight_waits": "core.singleflight_waits",
		"trace_broker_fetch_hits":    "serve.broker_fetches",
		"frontier_optimizer_evals":   "frontier.optimizer_evals",
	}
	out := map[string]int64{}
	for _, name := range names {
		out[name] = 0
	}
	for _, r := range rs {
		snap := r.Metrics().Snapshot()
		for from, to := range names {
			out[to] += snap.Counters[from]
		}
		var samples int64
		for _, e := range r.Results() {
			if e.Result != nil {
				for _, m := range e.Result.Reps {
					samples += int64(m.ActiveSamples)
				}
			}
		}
		out["k20power.active_samples"] += samples
	}
	return out
}

// setCounts copies the pass's runner work counts into the per-layer ledger.
func setCounts(pl *perLayer, counts map[string]int64) {
	for _, name := range []string{"core.simulations", "core.captures", "core.cache_hits", "core.singleflight_waits",
		"sim.replays", "serve.broker_fetches", "serve.shards", "serve.redispatches", "frontier.optimizer_evals"} {
		pl.set(name, float64(counts[name]))
	}
}

// storeRoundTrip times saving a runner's cache to disk and loading it into
// a fresh runner, under the run's output directory.
func storeRoundTrip(tr *tracer, dir string, r *core.Runner, pl *perLayer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "store.json")
	defer os.Remove(path)
	sp := tr.start("core.Runner.SaveStore", 0, -1)
	t0 := time.Now()
	err := r.SaveStore(path)
	save := time.Since(t0)
	sp.end()
	if err != nil {
		return fmt.Errorf("saving store: %w", err)
	}
	sp = tr.start("core.Runner.LoadStore", 0, -1)
	t0 = time.Now()
	err = core.NewRunner().LoadStore(path)
	load := time.Since(t0)
	sp.end()
	if err != nil {
		return fmt.Errorf("loading store: %w", err)
	}
	pl.set("core.store_save_s", save.Seconds())
	pl.set("core.store_load_s", load.Seconds())
	return nil
}

// codecRoundTrip times encoding and decoding traces with the trace codec,
// checking each decoded trace re-encodes to the same bytes.
func codecRoundTrip(tr *tracer, traces []*sim.LaunchTrace, pl *perLayer) error {
	var bytes int64
	var enc, dec time.Duration
	for _, t := range traces {
		sp := tr.start("sim.EncodeTrace", 0, -1)
		t0 := time.Now()
		data, err := sim.EncodeTrace(t)
		enc += time.Since(t0)
		sp.end()
		if err != nil {
			return fmt.Errorf("encoding trace: %w", err)
		}
		sp = tr.start("sim.DecodeTrace", 0, -1)
		t0 = time.Now()
		back, err := sim.DecodeTrace(data)
		dec += time.Since(t0)
		sp.end()
		if err != nil {
			return fmt.Errorf("decoding trace: %w", err)
		}
		again, err := sim.EncodeTrace(back)
		if err != nil || string(again) != string(data) {
			return fmt.Errorf("trace codec round trip is not byte-stable")
		}
		bytes += int64(len(data))
	}
	pl.set("sim.trace_bytes", float64(bytes))
	pl.counts["sim.trace_bytes"] = bytes
	if enc > 0 {
		pl.set("sim.codec_encode_mb_per_s", float64(bytes)/1e6/enc.Seconds())
	}
	if dec > 0 {
		pl.set("sim.codec_decode_mb_per_s", float64(bytes)/1e6/dec.Seconds())
	}
	return nil
}
