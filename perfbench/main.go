// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one workload per process:
//
//	perfbench --workload cold-sweep|frontier-warm|serve-fleet --seed N --seconds S --trace 0|1
//
// and prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. Untraced runs (--trace 0)
// report the end-to-end metrics; traced runs (--trace 1) report the per-layer
// ledger. See README.md for the workloads, metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passResult is what one pass of a workload did.
type passResult struct {
	wall   time.Duration
	ops    int
	failed int
	// lat holds per-operation latency samples by kind: "op" for the
	// workload's operation, plus "read", "compute" and "sweep" on
	// serve-fleet.
	lat map[string][]time.Duration
	// counts is the pass's deterministic work-count ledger.
	counts map[string]int64
}

// workload is one benchmark scenario. Each method runs on the harness
// goroutine; pass starts the closed-loop clients and waits for them.
type workload interface {
	// setup does the once-per-run set-up; the harness repeats it and reports
	// the median as setup_s.
	setup(ctx context.Context) error
	// reset builds the fresh state the next pass starts from.
	reset(ctx context.Context) error
	// pass runs one pass of fixed work. With a tracer, spans hang off root.
	pass(ctx context.Context, tr *tracer, root int64) (*passResult, error)
	// plan orders the work of later passes from the last pass's costs.
	plan(seed uint64)
	// verify checks the last pass's outputs and returns one line per
	// mismatched operation.
	verify(ctx context.Context) ([]string, error)
	// layers re-executes the last traced pass's hidden layers under tr and
	// fills the per-layer values it owns.
	layers(ctx context.Context, tr *tracer, pl *perLayer) error
	// minSamples lists the latency samples per kind a traced run needs so
	// that its per-layer percentiles are reportable.
	minSamples() map[string]int
	close()
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
	out      string
	clients  int
	// log receives the environment, run and work-count lines printed
	// before the result.
	log io.Writer
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold-sweep, frontier-warm or serve-fleet")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed ordering the work among clients and the request sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "timed seconds per run (whole passes; at least one)")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer ledger")
	flag.StringVar(&cfg.root, "root", ".", "repository root (holds internal/check/testdata/golden)")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for spans and the work-count ledger")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.clients = runtime.NumCPU()
	cfg.log = os.Stdout

	w, err := newWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := run(context.Background(), cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(2)
	}
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "cold-sweep":
		return newColdSweep(cfg), nil
	case "frontier-warm":
		return newFrontierWarm(cfg), nil
	case "serve-fleet":
		return newServeFleet(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-sweep, frontier-warm or serve-fleet)", cfg.workload)
}

// A run samples its set-up at least setupMinReps times and for at least
// setupMinTime, and reports the median sample as setup_s.
const (
	setupMinReps = 3
	setupMinTime = 500 * time.Millisecond
	setupBatch   = 20 * time.Millisecond
)

// maxTracedSeconds caps how long a traced run keeps adding untraced passes
// to reach its per-layer sample minimums.
const maxTracedSeconds = 60

// run executes one benchmark run: set-up, one untimed warm-up pass, timed
// passes for the requested seconds, and — when traced — one traced pass
// followed by the per-layer re-execution.
func run(ctx context.Context, cfg config, w workload) (*report, error) {
	defer w.close()
	env, err := environment(cfg)
	if err != nil {
		return nil, err
	}
	g := &gate{}

	// A sample is a batch of back-to-back set-ups lasting at least
	// setupBatch, divided by its size, so a sub-millisecond set-up is not
	// dominated by whether a garbage collection happened to land in it.
	var setups []time.Duration
	for begin := time.Now(); len(setups) < setupMinReps || time.Since(begin) < setupMinTime; {
		k := 0
		t0 := time.Now()
		for k == 0 || time.Since(t0) < setupBatch {
			if err := w.setup(ctx); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			k++
		}
		setups = append(setups, time.Since(t0)/time.Duration(k))
	}

	// Warm-up: the first pass in a process runs slower (heap growth, page
	// faults), so it is never timed. It fixes the reference outputs and
	// work counts every later pass must repeat.
	if err := w.reset(ctx); err != nil {
		return nil, fmt.Errorf("warm-up reset: %w", err)
	}
	warm, err := w.pass(ctx, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	if err := g.check(ctx, w, warm, nil); err != nil {
		return nil, err
	}
	w.plan(cfg.seed)

	// Timed passes. A traced run also needs enough samples for its
	// per-layer percentiles, so it may run more passes.
	var timed []*passResult
	var resets []time.Duration
	var window time.Duration
	cpu0, mem0 := cpuTime(), memStats()
	need := map[string]int{}
	if cfg.trace {
		need = w.minSamples()
	}
	for len(timed) == 0 || window.Seconds() < cfg.seconds || (!enough(timed, need) && window.Seconds() < maxTracedSeconds) {
		runtime.GC()
		t0 := time.Now()
		if err := w.reset(ctx); err != nil {
			return nil, fmt.Errorf("reset: %w", err)
		}
		resets = append(resets, time.Since(t0))
		pr, err := w.pass(ctx, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(timed)+1, err)
		}
		window += pr.wall
		timed = append(timed, pr)
		if err := g.check(ctx, w, pr, warm.counts); err != nil {
			return nil, err
		}
	}
	cpu1, mem1 := cpuTime(), memStats()

	var walls []time.Duration
	var ops int
	for _, pr := range timed {
		walls = append(walls, pr.wall)
		ops += pr.ops
	}
	wall := median(walls)
	rep := &report{Metrics: map[string]metric{}}
	passWalls := make([]float64, len(walls))
	for i, d := range walls {
		passWalls[i] = d.Seconds()
	}
	meta := map[string]any{
		"passes": len(timed), "pass_wall_s": passWalls, "window_s": window.Seconds(), "ops": ops,
		"setup_reps": len(setups), "resets": len(resets), "latency": latencySummary(timed),
	}

	counts := warm.counts
	if !cfg.trace {
		rep.Metrics["setup_s"] = metric{median(setups).Seconds(), "s"}
		rep.Metrics["wall_s"] = metric{wall.Seconds(), "s"}
		rep.Metrics["ops_per_s"] = metric{float64(ops) / window.Seconds(), "1/s"}
	} else {
		tr := newTracer()
		runtime.GC()
		if err := w.reset(ctx); err != nil {
			return nil, fmt.Errorf("traced reset: %w", err)
		}
		root := tr.start("pass", 0, -1)
		tp, err := w.pass(ctx, tr, root.id())
		root.end()
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if err := g.check(ctx, w, tp, warm.counts); err != nil {
			return nil, err
		}
		pl := newPerLayer()
		pl.set("proc.cpu_util", (cpu1-cpu0).Seconds()/(window.Seconds()*float64(cfg.clients)))
		pl.set("proc.alloc_mb", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1e6/float64(len(timed)))
		pl.set("proc.gc_cycles", float64(mem1.NumGC-mem0.NumGC)/float64(len(timed)))
		pl.set("bench.reset_s", median(resets).Seconds())
		pl.set("bench.trace_overhead", tp.wall.Seconds()/wall.Seconds()-1)
		// The traced pass's self time: wall time during which no client
		// was inside a call into the program.
		var rootSpan span
		var calls []span
		for _, s := range tr.spans {
			switch {
			case s.ID == root.id():
				rootSpan = s
			case s.Parent == root.id():
				calls = append(calls, s)
			}
		}
		pl.set("bench.unattributed_s", selfTime(rootSpan, calls).Seconds())
		pl.latencies(append(timed, tp))
		if err := w.layers(ctx, tr, pl); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		g.add(pl.mismatches)
		setCounts(pl, tp.counts)
		pl.set("proc.max_rss_mb", maxRSSMB())
		rep.Metrics = pl.metrics()
		meta["unreported_percentiles"] = pl.unreported
		meta["traced_wall_s"] = tp.wall.Seconds()
		if err := writeSpans(cfg, tr); err != nil {
			return nil, err
		}
		timed = append(timed, tp)
		counts = mergeCounts(counts, pl.counts)
	}

	// The work-count ledger must repeat across runs of one seed too.
	if err := g.ledger(cfg, env["source"].(string), counts); err != nil {
		return nil, err
	}

	for _, pr := range timed {
		rep.Attempted += pr.ops
		rep.Failed += pr.failed
	}
	rep.Attempted += warm.ops
	rep.Failed += warm.failed + g.mismatches
	rep.Correct = rep.Failed == 0
	for _, line := range g.lines {
		fmt.Fprintln(os.Stderr, "perfbench: mismatch:", line)
	}
	printMeta(cfg.log, "env", env)
	printMeta(cfg.log, "run", meta)
	printMeta(cfg.log, "counts", counts)
	return rep, nil
}

// pooled gathers the passes' latency samples by kind.
func pooled(passes []*passResult) map[string][]time.Duration {
	pool := map[string][]time.Duration{}
	for _, pr := range passes {
		for kind, xs := range pr.lat {
			pool[kind] = append(pool[kind], xs...)
		}
	}
	return pool
}

// enough reports whether the passes hold the minimum latency samples.
func enough(passes []*passResult, need map[string]int) bool {
	pool := pooled(passes)
	for kind, n := range need {
		if len(pool[kind]) < n {
			return false
		}
	}
	return true
}

// latencySummary states, per latency kind, the sample count and the highest
// percentile the samples can report under the percentile rule.
func latencySummary(passes []*passResult) map[string]any {
	out := map[string]any{}
	for kind, xs := range pooled(passes) {
		entry := map[string]any{"samples": len(xs)}
		if pm := highestPercentile(len(xs)); pm > 0 {
			v, _ := percentile(xs, pm)
			entry[fmt.Sprintf("p%g_ms", float64(pm)/10)] = float64(v) / float64(time.Millisecond)
		}
		out[kind] = entry
	}
	return out
}

func printMeta(w io.Writer, kind string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "# %s %s\n", kind, data)
}

func writeSpans(cfg config, tr *tracer) error {
	dir := cfg.out + "/spans"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(fmt.Sprintf("%s/%s-seed%d.jsonl", dir, cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set in MB (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// environment records what a number was measured on, printed beside every
// result: CPU model, CPU count, GOMAXPROCS, Go version, commit and a digest
// of the benchmarked sources (the checkout need not be a git repository).
func environment(cfg config) (map[string]any, error) {
	src, err := sourceDigest(cfg.root)
	if err != nil {
		return nil, fmt.Errorf("hashing sources: %w", err)
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace,
		"seconds": cfg.seconds, "clients": cfg.clients,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "source": src,
	}, nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
