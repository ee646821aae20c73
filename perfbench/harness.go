package main

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Percentiles follow one rule everywhere: nearest rank, and a percentile is
// reported only when at least minBeyond samples lie above it. Percentiles are
// per-mille integers so the rank arithmetic stays exact.
const minBeyond = 10

// percentile returns the nearest-rank percentile pm (per mille, 500 = median)
// of samples, and false when fewer than minBeyond samples lie beyond it.
// samples is sorted in place.
func percentile(samples []time.Duration, pm int) (time.Duration, bool) {
	n := len(samples)
	if n == 0 || pm <= 0 || pm >= 1000 {
		return 0, false
	}
	rank := (pm*n + 999) / 1000 // ceil(pm/1000 * n), 1-based
	if n-rank < minBeyond {
		return 0, false
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[rank-1], true
}

// highestPercentile is the highest of p50, p90, p99 and p99.9 (per mille)
// that n samples can report, or 0 when not even the median can be.
func highestPercentile(n int) int {
	best := 0
	for _, pm := range []int{500, 900, 990, 999} {
		if n-(pm*n+999)/1000 >= minBeyond {
			best = pm
		}
	}
	return best
}

// median of a small sample set (setup repetitions, pass walls): the middle
// element, or the mean of the two middle ones. No minimum applies; these are
// run summaries, not latency percentiles.
func median(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// span is one traced call: a named interval, the span that caused it, and
// the request or combination it served (-1 when none).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Req    int64         `json:"req"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs execute the same code with no span cost beyond
// a nil check.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span; its ID is 0 on a nil tracer.
func (t *tracer) start(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{ID: t.nextID.Add(1), Parent: parent, Name: name, Req: req, Start: time.Since(t.origin)}}
}

func (o openSpan) id() int64 { return o.s.ID }

// end closes the span and records it.
func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = time.Since(o.t.origin)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// named returns the recorded spans with the given name.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of the named spans.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.named(name) {
		d += s.dur()
	}
	return d
}

// durations lists the durations of the named spans.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.named(name) {
		out = append(out, s.dur())
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap one another (concurrent calls) or
// stick out of the parent; only the union of their clipped intervals counts.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}

// newRNG derives a deterministic generator from the run's seed and a stream
// label, so each use of the seed (ordering, request mix) is independent.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// costOrder schedules items longest first by power-of-two cost class, taking
// costs from an earlier pass, with the seed ordering items inside a class.
// Closed-loop clients pulling from this queue finish together, so the
// seed does not move a pass's makespan while still ordering the work.
func costOrder(costs []time.Duration, rng *rand.Rand) []int {
	order := rng.Perm(len(costs))
	class := func(d time.Duration) int {
		c := 0
		for d > time.Millisecond {
			d /= 2
			c++
		}
		return c
	}
	sort.SliceStable(order, func(i, j int) bool { return class(costs[order[i]]) > class(costs[order[j]]) })
	return order
}

// runClients runs n closed-loop clients over a shared queue of items: each
// client takes the next item only after its previous one completed, and the
// call returns once every item is done and every client has exited.
func runClients(n, items int, do func(client, item int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= items {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
}
