package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
)

// fleetWorkers is the number of worker Servers behind the coordinator.
const fleetWorkers = 2

// readsPerCompute is how many cached keys a client re-reads after each
// compute request.
const readsPerCompute = 3

// pollEvery is how often a client polls a sweep job.
const pollEvery = time.Millisecond

// requestTimeout and sweepTimeout turn a hung fleet into failed operations
// instead of a run that never ends; a healthy pass takes about a second.
const (
	requestTimeout = 30 * time.Second
	sweepTimeout   = 60 * time.Second
)

type taskKind int

const (
	taskCompute taskKind = iota
	taskSweep
)

// task is one step of the serve-fleet request sequence: a compute request
// for one (program, grid config) key followed by reads of keys already
// answered, or one sweep of a program over the whole grid.
type task struct {
	kind taskKind
	prog int
	cfg  int
	// reads are sequence indices of compute tasks at or before this one
	// whose keys are read back after this task's compute.
	reads [readsPerCompute]int
}

// fleetSequence builds the seeded request sequence: every grid config of the
// compute programs as its own compute task, in seeded order, with one sweep
// task per sweep program at a seeded position. Each compute re-reads keys
// drawn uniformly from the computes up to and including itself.
func fleetSequence(seed uint64, computeProgs, sweepProgs []int, nConfigs int) []task {
	rng := newRNG(seed, 3)
	var seq []task
	for _, p := range computeProgs {
		for c := 0; c < nConfigs; c++ {
			seq = append(seq, task{kind: taskCompute, prog: p, cfg: c})
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	for _, p := range sweepProgs {
		at := rng.IntN(len(seq) + 1)
		seq = append(seq[:at], append([]task{{kind: taskSweep, prog: p}}, seq[at:]...)...)
	}
	var computes []int
	for i := range seq {
		if seq[i].kind != taskCompute {
			continue
		}
		computes = append(computes, i)
		for r := range seq[i].reads {
			seq[i].reads[r] = computes[rng.IntN(len(computes))]
		}
	}
	return seq
}

// fleet is one coordinator and its workers over loopback httptest servers.
type fleet struct {
	coord   *core.Runner
	workers []*core.Runner
	servers []*httptest.Server
	url     string
}

func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
}

var quietLog = log.New(io.Discard, "", 0)

// startFleet starts a coordinator and fleetWorkers workers that broker
// launch traces through it, all serving the grid, and seeds the
// coordinator's trace store with the set-up traces.
func startFleet(ws *warmSet, encoded [][]byte, client *http.Client) (*fleet, error) {
	f := &fleet{coord: core.NewRunner()}
	// The coordinator's listener is bound first so the workers' brokers know
	// its address; it starts serving once the workers exist.
	cts := httptest.NewUnstartedServer(nil)
	f.servers = append(f.servers, cts)
	f.url = "http://" + cts.Listener.Addr().String()
	var peers []string
	for i := 0; i < fleetWorkers; i++ {
		r := core.NewRunner()
		r.Broker = serve.NewHTTPTraceBroker(f.url, r.Metrics())
		s, err := serve.New(serve.Config{Runner: r, Programs: ws.progs, Configs: ws.grid, Log: quietLog})
		if err != nil {
			f.close()
			return nil, err
		}
		ts := httptest.NewServer(s.Handler())
		f.servers = append(f.servers, ts)
		f.workers = append(f.workers, r)
		peers = append(peers, ts.URL)
	}
	c, err := serve.NewCoordinator(serve.CoordinatorConfig{
		Runner: f.coord, Programs: ws.progs, Configs: ws.grid, Peers: peers, Log: quietLog,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	cts.Config.Handler = c.Handler()
	cts.Start()
	for i, p := range ws.progs {
		u := fmt.Sprintf("%s/v1/traces/%s/%s/%s", f.url, url.PathEscape(ws.grid[0].Device().Name),
			url.PathEscape(p.Name()), url.PathEscape(p.DefaultInput()))
		code, body, err := do(client, http.MethodPut, u, encoded[i])
		if err != nil || code != http.StatusNoContent {
			f.close()
			return nil, fmt.Errorf("seeding trace %s: status %d %s %v", p.Name(), code, body, err)
		}
	}
	return f, nil
}

// do sends one request and reads the whole response.
func do(client *http.Client, method, u string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// serveFleet drives a fresh coordinator-plus-workers fleet per pass with the
// seeded request sequence: half the programs priced config by config
// through /v1/measure (each compute followed by reads the coordinator
// answers from its cache), the other half with one /v1/sweep job each.
type serveFleet struct {
	cfg     config
	ws      *warmSet
	encoded [][]byte
	client  *http.Client
	seq     []task
	bodies  [][]byte

	f *fleet
	// ref is a standalone Server's /v1/results after the same sequence;
	// standalone holds its per-task compute latencies.
	ref        []byte
	standalone []time.Duration
	computeLat []time.Duration
	// starts are the fleet start-up times of the run's passes.
	starts []time.Duration
}

func newServeFleet(cfg config) *serveFleet {
	return &serveFleet{cfg: cfg, client: &http.Client{Timeout: requestTimeout}}
}

// setup captures the traces and encodes them for the trace store.
func (w *serveFleet) setup(ctx context.Context) error {
	ws, err := newWarmSet(ctx, w.cfg.root)
	if err != nil {
		return err
	}
	w.encoded = w.encoded[:0]
	for _, tr := range ws.traces {
		data, err := sim.EncodeTrace(tr)
		if err != nil {
			return err
		}
		w.encoded = append(w.encoded, data)
	}
	w.ws = ws
	if w.seq == nil {
		var computeProgs, sweepProgs []int
		for i := range ws.progs {
			if i%2 == 0 {
				computeProgs = append(computeProgs, i)
			} else {
				sweepProgs = append(sweepProgs, i)
			}
		}
		w.seq = fleetSequence(w.cfg.seed, computeProgs, sweepProgs, len(ws.grid))
		for _, t := range w.seq {
			w.bodies = append(w.bodies, w.body(t))
		}
	}
	return nil
}

// body is the JSON request of a task's compute or sweep.
func (w *serveFleet) body(t task) []byte {
	p := w.ws.progs[t.prog]
	var v any
	if t.kind == taskCompute {
		v = map[string]string{"program": p.Name(), "config": w.ws.grid[t.cfg].Name}
	} else {
		v = map[string][]string{"programs": {p.Name()}}
	}
	data, _ := json.Marshal(v) // maps of strings always marshal
	return data
}

func (w *serveFleet) reset(ctx context.Context) error {
	if w.f != nil {
		w.f.close()
		w.f = nil
	}
	w.client.CloseIdleConnections()
	t0 := time.Now()
	f, err := startFleet(w.ws, w.encoded, w.client)
	if err != nil {
		return fmt.Errorf("starting fleet: %w", err)
	}
	w.starts = append(w.starts, time.Since(t0))
	w.f = f
	return nil
}

// sequenceResult is what running the sequence against one base URL did.
type sequenceResult struct {
	wall                 time.Duration
	ops, failed          int
	reads, sweeps        []time.Duration
	computes, computeLat []time.Duration // computeLat is indexed by task
}

// runSequence runs the request sequence against base on closed-loop
// clients. A read waits until the compute it re-reads has been answered, so
// every read is a cache hit whatever the interleaving.
func (w *serveFleet) runSequence(base string, tr *tracer, root int64) *sequenceResult {
	n := len(w.seq)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	type clientStats struct {
		ops, failed     int
		reads, computes []time.Duration
		sweeps          []time.Duration
	}
	stats := make([]clientStats, w.cfg.clients)
	res := &sequenceResult{computeLat: make([]time.Duration, n)}
	start := time.Now()
	runClients(w.cfg.clients, n, func(c, i int) {
		st := &stats[c]
		t := w.seq[i]
		if t.kind == taskSweep {
			sp := tr.start("serve.sweep", root, int64(i))
			t0 := time.Now()
			ok := w.sweep(base, w.bodies[i])
			st.sweeps = append(st.sweeps, time.Since(t0))
			sp.end()
			st.ops++
			if !ok {
				st.failed++
			}
			return
		}
		sp := tr.start("serve.compute", root, int64(i))
		t0 := time.Now()
		ok := w.measure(base, w.bodies[i])
		d := time.Since(t0)
		sp.end()
		close(done[i])
		res.computeLat[i] = d
		st.computes = append(st.computes, d)
		st.ops++
		if !ok {
			st.failed++
		}
		for _, j := range t.reads {
			<-done[j]
			sp := tr.start("serve.read", root, int64(j))
			t0 := time.Now()
			ok := w.measure(base, w.bodies[j])
			st.reads = append(st.reads, time.Since(t0))
			sp.end()
			st.ops++
			if !ok {
				st.failed++
			}
		}
	})
	res.wall = time.Since(start)
	for _, st := range stats {
		res.ops += st.ops
		res.failed += st.failed
		res.reads = append(res.reads, st.reads...)
		res.computes = append(res.computes, st.computes...)
		res.sweeps = append(res.sweeps, st.sweeps...)
	}
	return res
}

// measure posts one /v1/measure request. 200 and the paper's 422 exclusion
// are correct answers.
func (w *serveFleet) measure(base string, body []byte) bool {
	code, _, err := do(w.client, http.MethodPost, base+"/v1/measure", body)
	return err == nil && (code == http.StatusOK || code == http.StatusUnprocessableEntity)
}

// sweep posts one /v1/sweep job and polls it until it ends.
func (w *serveFleet) sweep(base string, body []byte) bool {
	code, data, err := do(w.client, http.MethodPost, base+"/v1/sweep", body)
	if err != nil || code != http.StatusAccepted {
		return false
	}
	var job struct{ ID, Status string }
	if err := json.Unmarshal(data, &job); err != nil {
		return false
	}
	for deadline := time.Now().Add(sweepTimeout); time.Now().Before(deadline); {
		code, data, err := do(w.client, http.MethodGet, base+"/v1/jobs/"+job.ID, nil)
		if err != nil || code != http.StatusOK || json.Unmarshal(data, &job) != nil {
			return false
		}
		switch job.Status {
		case "done":
			return true
		case "failed", "canceled":
			return false
		}
		time.Sleep(pollEvery)
	}
	return false
}

func (w *serveFleet) pass(ctx context.Context, tr *tracer, root int64) (*passResult, error) {
	res := w.runSequence(w.f.url, tr, root)
	w.computeLat = res.computeLat
	pr := &passResult{
		wall: res.wall, ops: res.ops, failed: res.failed,
		lat: map[string][]time.Duration{
			"op":      append(append([]time.Duration(nil), res.computes...), res.reads...),
			"read":    res.reads,
			"compute": res.computes,
			"sweep":   res.sweeps,
		},
	}
	pr.counts = runnerCounts(w.f.workers...)
	snap := w.f.coord.Metrics().Snapshot().Counters
	pr.counts["serve.shards"] = snap["fabric_shards_dispatched"]
	pr.counts["serve.redispatches"] = snap["fabric_shard_redispatches"]
	pr.counts["serve.measure_proxied"] = snap["fabric_measure_proxied"]
	pr.counts["serve.trace_store_hits"] = snap["trace_store_hits"]
	return pr, nil
}

func (w *serveFleet) plan(seed uint64) {}

// verify requires the coordinator's /v1/results to be byte-identical to a
// standalone Server's after the same sequence. The standalone reference is
// built on first use.
func (w *serveFleet) verify(ctx context.Context) ([]string, error) {
	if w.ref == nil {
		ref, lat, err := w.standaloneRun()
		if err != nil {
			return nil, err
		}
		w.ref, w.standalone = ref, lat
	}
	code, got, err := do(w.client, http.MethodGet, w.f.url+"/v1/results", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("coordinator /v1/results: status %d: %v", code, err)
	}
	if bytes.Equal(got, w.ref) {
		return nil, nil
	}
	return diffResults(w.ref, got), nil
}

// standaloneRun feeds the sequence to a standalone Server whose runner
// replays the set-up traces, returning its /v1/results and the per-task
// compute latencies.
func (w *serveFleet) standaloneRun() ([]byte, []time.Duration, error) {
	r := core.NewRunner()
	r.Broker = w.ws.broker
	s, err := serve.New(serve.Config{Runner: r, Programs: w.ws.progs, Configs: w.ws.grid, Log: quietLog})
	if err != nil {
		return nil, nil, err
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res := w.runSequence(ts.URL, nil, 0)
	if res.failed > 0 {
		return nil, nil, fmt.Errorf("standalone reference: %d failed requests", res.failed)
	}
	code, data, err := do(w.client, http.MethodGet, ts.URL+"/v1/results", nil)
	if err != nil || code != http.StatusOK {
		return nil, nil, fmt.Errorf("standalone /v1/results: status %d: %v", code, err)
	}
	return data, res.computeLat, nil
}

// diffResults names every entry that differs between two /v1/results
// bodies (at least one line when the bodies differ).
func diffResults(want, got []byte) []string {
	var we, ge []core.ResultEntry
	if json.Unmarshal(want, &we) != nil || json.Unmarshal(got, &ge) != nil {
		return []string{"/v1/results differs from the standalone server and does not decode"}
	}
	var out []string
	for i := 0; i < max(len(we), len(ge)); i++ {
		switch {
		case i >= len(we):
			out = append(out, fmt.Sprintf("extra result %s@%s", ge[i].Program, ge[i].Config))
		case i >= len(ge):
			out = append(out, fmt.Sprintf("missing result %s@%s", we[i].Program, we[i].Config))
		default:
			a, _ := json.Marshal(we[i])
			b, _ := json.Marshal(ge[i])
			if !bytes.Equal(a, b) {
				out = append(out, fmt.Sprintf("result %s@%s differs from the standalone server", we[i].Program, we[i].Config))
			}
		}
	}
	if len(out) == 0 {
		out = append(out, "/v1/results bytes differ from the standalone server")
	}
	return out
}

func (w *serveFleet) minSamples() map[string]int {
	return map[string]int{"op": 1000, "read": 20, "compute": 100, "sweep": 100}
}

// layers re-measures every combination the traced pass's workers measured
// on a runner of its own, so the core layer's calls are visible, then
// replays and prices each one.
func (w *serveFleet) layers(ctx context.Context, tr *tracer, pl *perLayer) error {
	ws := w.ws
	nc := len(ws.grid)
	r := core.NewRunner()
	r.Broker = ws.broker
	x := newReexec(tr, w.cfg.clients)
	root := tr.start("reexec", 0, -1)
	errs := make([]error, len(ws.progs))
	runClients(w.cfg.clients, len(ws.progs), func(_, pi int) {
		p := ws.progs[pi]
		for ci, clk := range ws.grid {
			id := int64(pi*nc + ci)
			sp := tr.start(spanMeasure, root.id(), id)
			res, err := r.Measure(ctx, p, p.DefaultInput(), clk)
			sp.end()
			if err != nil && !core.IsInsufficient(err) {
				errs[pi] = err
				return
			}
			dev, err := x.replay(root.id(), id, ws.traces[pi], clk)
			if err != nil {
				errs[pi] = err
				return
			}
			x.price(root.id(), id, dev, res)
		}
	})
	root.end()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	pl.set("serve.fleet_start_s", median(w.starts).Seconds())

	// The proxy's cost: coordinator minus standalone latency, paired by key.
	var standalone, proxy []time.Duration
	for i, t := range w.seq {
		if t.kind == taskCompute {
			standalone = append(standalone, w.standalone[i])
			proxy = append(proxy, w.computeLat[i]-w.standalone[i])
		}
	}
	pl.setPercentile("serve.standalone_ms.p50", standalone, 500, time.Millisecond)
	pl.setPercentile("serve.proxy_ms.p50", proxy, 500, time.Millisecond)
	return x.finish(pl, spanMeasure, ws.traces, w.f.coord, w.cfg.out)
}

func (w *serveFleet) close() {
	if w.f != nil {
		w.f.close()
	}
}
