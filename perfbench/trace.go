package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobilecongest/internal/congest"
)

// The traced run records spans from the benchmark's own code, around the
// calls into each layer: engine phase boundaries come from an Observer,
// adversary time from a transparent wrapper, and allocation and GC counters
// from runtime/metrics, which (unlike ReadMemStats) never stops the world.
// Spans stay in memory and are written out when the run ends.

// span is one timed interval. Spans of one operation share Run; Parent is
// the ID of the enclosing span (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Allocs and AllocBytes are process-wide heap-allocation deltas over
	// the span, kept only on spans whose ends were sampled.
	Allocs     uint64 `json:"allocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer is the in-memory span store of one traced run. A nil *tracer is
// tracing off: the workloads install no observer and no wrapper at all, so
// the untraced runs execute exactly the code a user's would.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the trace clock: nanoseconds since the run began.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) id() int64 { return t.ids.Add(1) }

func (t *tracer) add(ss ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// record adds a finished span with the given bounds.
func (t *tracer) record(run string, parent int64, name string, start, end int64) {
	t.add(span{ID: t.id(), Parent: parent, Run: run, Name: name, Start: start, End: end})
}

// named returns every span called name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// medianMS is the median duration, in ms, of the spans called name.
func (t *tracer) medianMS(name string) float64 {
	var ds []float64
	for _, s := range t.named(name) {
		ds = append(ds, float64(s.dur())/1e6)
	}
	return median(ds)
}

// write dumps the spans as JSON lines, in start order.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children, such as
// concurrent plan cells, count once).
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	iv := make([][2]int64, 0, len(ivs))
	for _, v := range ivs {
		a, b := max(v[0], lo), min(v[1], hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		total += v[1] - max(v[0], end)
		end = v[1]
	}
	return total
}

// layerOf maps a span name onto the module that did the work.
func layerOf(name string) string {
	switch strings.SplitN(name, ".", 2)[0] {
	case "congest":
		return "internal/congest"
	case "adversary":
		return "internal/adversary"
	case "resilient":
		return "internal/resilient"
	case "graph":
		return "internal/graph"
	case "mobilecongest":
		return "mobilecongest"
	case "mobilesimd":
		return "cmd/mobilesimd"
	}
	return "perfbench"
}

// accountSlack bounds the share of a traced operation's wall time that no
// layer span covers (the benchmark client's own time between calls).
const accountSlack = 0.10

// accounting sums self time per layer and checks, for every root span, that
// its own uncovered self time stays within accountSlack of its duration.
// It returns the per-layer self time in ms and any roots over the slack.
func accounting(spans []span) (map[string]float64, []string) {
	self := selfTimes(spans)
	layers := map[string]float64{}
	var over []string
	for _, s := range spans {
		layers[layerOf(s.Name)] += float64(self[s.ID]) / 1e6
		if s.Parent == 0 && s.dur() > 0 {
			if share := float64(self[s.ID]) / float64(s.dur()); share > accountSlack {
				over = append(over, fmt.Sprintf("%s %s: %.1f%% of %.1f ms outside layer spans",
					s.Name, s.Run, 100*share, float64(s.dur())/1e6))
			}
		}
	}
	return layers, over
}

// rtSample is a reading of the runtime counters the benchmark tracks.
type rtSample struct {
	allocBytes, allocs, gcCycles uint64
	gcCPU, totalCPU              float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// rtReader reads the counters into a reusable sample buffer; one per
// goroutine.
type rtReader []metrics.Sample

func newRTReader() rtReader {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	return s
}

func (r rtReader) read() rtSample {
	metrics.Read(r)
	return rtSample{
		allocBytes: r[0].Value.Uint64(),
		allocs:     r[1].Value.Uint64(),
		gcCycles:   r[2].Value.Uint64(),
		gcCPU:      r[3].Value.Float64(),
		totalCPU:   r[4].Value.Float64(),
	}
}

// delta fills a span's allocation counters from readings at its ends.
func (s *span) delta(a, b rtSample) {
	s.Allocs = b.allocs - a.allocs
	s.AllocBytes = b.allocBytes - a.allocBytes
}

// roundEv is one round's phase boundaries on the trace clock.
type roundEv struct {
	start, icptIn, icptOut, delivered int64
	rtStart, rtDelivered              rtSample
}

// runObserver records one engine run's phase boundaries: the first
// RoundStart ends setup, each RoundStart→RoundDelivered is a round (split
// at the adversary call when one is installed), and RunDone begins
// teardown. It implements congest.Observer; congest.Stats is not
// re-exported by the root package, hence the internal import.
type runObserver struct {
	t       *tracer
	rt      rtReader
	started bool
	first   int64
	firstRT rtSample
	cur     roundEv
	open    bool
	rounds  []roundEv
	done    int64
	doneRT  rtSample
	stats   congest.Stats
}

func newRunObserver(t *tracer) *runObserver { return &runObserver{t: t, rt: newRTReader()} }

// reset readies the observer for another run of a reused Scenario.
func (o *runObserver) reset() {
	*o = runObserver{t: o.t, rt: o.rt, rounds: o.rounds[:0]}
}

func (o *runObserver) RoundStart(int) {
	now, rs := o.t.now(), o.rt.read()
	if !o.started {
		o.started, o.first, o.firstRT = true, now, rs
	}
	o.cur, o.open = roundEv{start: now, rtStart: rs}, true
}

func (o *runObserver) RoundDelivered(int, *congest.RoundView) {
	o.cur.delivered, o.cur.rtDelivered = o.t.now(), o.rt.read()
	o.rounds = append(o.rounds, o.cur)
	o.open = false
}

func (o *runObserver) RunDone(st congest.Stats, _ error) {
	o.done, o.doneRT, o.stats = o.t.now(), o.rt.read(), st
	if o.open { // the final round was abandoned: every node terminated
		o.cur.delivered, o.cur.rtDelivered = o.done, o.doneRT
		o.rounds = append(o.rounds, o.cur)
		o.open = false
	}
}

// tracedAdversary times the adversary's Intercept. Unwrap returns the inner
// adversary, so the engine finds PerRoundBudget, TotalBudget and
// RunResetter exactly as on the bare adversary.
type tracedAdversary struct {
	inner congest.Adversary
	obs   *runObserver
}

func (a *tracedAdversary) Intercept(round int, tr *congest.RoundTraffic) {
	a.obs.cur.icptIn = a.obs.t.now()
	a.inner.Intercept(round, tr)
	a.obs.cur.icptOut = a.obs.t.now()
}

func (a *tracedAdversary) Unwrap() any { return a.inner }

// emit turns the recorded run into spans under a "mobilecongest" span of
// the given name covering [start, end], with runtime readings at both ends.
func (o *runObserver) emit(run string, parent int64, name string, start, end int64, rtStart, rtEnd rtSample) {
	t := o.t
	runID := t.id()
	out := []span{{ID: runID, Parent: parent, Run: run, Name: name, Start: start, End: end}}
	out[0].delta(rtStart, rtEnd)
	add := func(parent int64, name string, a, b int64) *span {
		out = append(out, span{ID: t.id(), Parent: parent, Run: run, Name: name, Start: a, End: b})
		return &out[len(out)-1]
	}
	if !o.started { // no round ran: the whole engine call is setup
		add(runID, "congest.setup", start, o.done).delta(rtStart, o.doneRT)
	} else {
		add(runID, "congest.setup", start, o.first).delta(rtStart, o.firstRT)
	}
	for i, r := range o.rounds {
		sp := add(runID, "congest.round", r.start, r.delivered)
		sp.delta(r.rtStart, r.rtDelivered)
		rid := sp.ID
		if r.icptIn != 0 {
			add(rid, "congest.collect", r.start, r.icptIn)
			add(rid, "adversary.intercept", r.icptIn, r.icptOut)
			add(rid, "congest.deliver", r.icptOut, r.delivered)
		}
		next := o.done
		if i+1 < len(o.rounds) {
			next = o.rounds[i+1].start
		}
		add(runID, "congest.gap", r.delivered, next)
	}
	add(runID, "congest.teardown", o.done, end)
	t.add(out...)
}

// timed runs fn and, when tracing, records it as a span under parent.
func (t *tracer) timed(run string, parent int64, name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := t.now()
	fn()
	t.record(run, parent, name, start, t.now())
}

// root opens a root span: it returns the span's ID and a function that
// closes it. Both are no-ops when tracing is off.
func (t *tracer) root(run, name string) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id, start := t.id(), t.now()
	return id, func() { t.add(span{ID: id, Run: run, Name: name, Start: start, End: t.now()}) }
}
