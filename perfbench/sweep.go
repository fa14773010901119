package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	mc "mobilecongest"
)

// sweep-setup: in-process Plan sweeps, no cache, default engine and
// workers, of many short cells — FloodMax and Broadcast for 1 or 2 rounds
// under none/eavesdrop/flip (f=2) — on large sparse graphs (circulant,
// expander and grid at n=16384). Per-cell set-up dominates: layout bind,
// node cores, iter.Pull coroutines and RunContext reuse across cells.
// One operation is one Plan.Stream over all three families under one
// adversary (12 cells); operations rotate through the adversaries, so every
// window covers the whole 36-cell grid and every operation builds the same
// three graphs, which keeps operation times in one mode. Loads mobilecongest (Plan, registries), internal/congest
// set-up and teardown, internal/graph (each sweep builds its graph),
// internal/adversary (registry-built, untraced) and the Go runtime;
// bypasses internal/resilient, the result cache and the server.
const sweepN = 16384

var (
	sweepTopologies  = []string{"circulant", "expander", "grid"}
	sweepAdversaries = []string{"none", "eavesdrop", "flip"}
)

type sweepSetup struct {
	cfg   config
	edges map[string]int // undirected edge count per topology, for the checks
}

func newSweepSetup(cfg config, _ *tally) workload { return &sweepSetup{cfg: cfg} }

// setup builds each family's graph through the registry, as the sweeps
// will, and keeps the edge counts the record checks need.
func (s *sweepSetup) setup(tr *tracer) (time.Duration, error) {
	id, end := tr.root("setup", "bench.setup")
	defer end()
	return cpuCost(func() error { return s.build(tr, id) })
}

func (s *sweepSetup) build(tr *tracer, id int64) error {
	s.edges = map[string]int{}
	for _, topo := range sweepTopologies {
		var g *mc.Graph
		var err error
		tr.timed("setup", id, "graph.build", func() { g, err = mc.BuildTopology(topo, sweepN, 0) })
		if err != nil {
			return err
		}
		s.edges[topo] = g.M()
	}
	return nil
}

func (s *sweepSetup) plan(adv string) mc.Plan {
	return mc.Plan{
		Axes: []mc.Axis{
			mc.TopologyAxis(sweepTopologies...),
			mc.NAxis(sweepN),
			mc.ProtocolAxis("floodmax", "broadcast"),
			mc.ProtocolParamAxis(1, 2),
			mc.AdversaryAxis(adv),
			mc.FAxis(2),
		},
		BaseSeed: s.cfg.seed,
	}
}

func (s *sweepSetup) measure(more keepGoing, tr *tracer) *window {
	w := newWindow(s.cfg.probe)
	firstKeys := make([]map[string]string, len(sweepAdversaries)) // records of the first sweep per adversary
	var firstRec, busy []float64
	w.drive(more, func(i int) {
		adv := sweepAdversaries[i%len(sweepAdversaries)]
		run := fmt.Sprintf("sweep-%d", i)
		id, end := tr.root(run, "bench.sweep")
		p := s.plan(adv)
		cells := newCellTracer(tr, run, id)
		if tr != nil {
			p.Observers = cells.observers
		}
		start, cpu := time.Now(), selfCPU()
		var recs []mc.Record
		var problems []string
		var first float64
		for rec, err := range p.Stream(context.Background()) {
			if err != nil {
				problems = append(problems, "plan: "+err.Error())
				break
			}
			if recs == nil {
				first = float64(time.Since(start).Microseconds()) / 1000
			}
			cells.delivered(rec)
			recs = append(recs, rec)
		}
		elapsed, opCPU := time.Since(start), selfCPU()-cpu
		cells.finish()
		end()

		var cellMS []float64
		var sum float64
		var counts simCounts
		keys := map[string]string{}
		for _, r := range recs {
			if p := checkSweepRecord(r, s.edges[r.Topology]); p != "" {
				problems = append(problems, p)
			}
			cellMS = append(cellMS, r.ElapsedMS)
			sum += r.ElapsedMS
			counts.add(simCounts{r.Rounds, r.Messages, r.Bytes, r.CorruptedEdgeRounds})
			keys[r.Name] = recordKey(r)
		}
		if len(recs) != 12 {
			problems = append(problems, fmt.Sprintf("%s sweep: %d records, want 12", adv, len(recs)))
		}
		// Every sweep under one adversary repeats the same cells and seeds,
		// so its records must equal that adversary's first sweep exactly.
		if ref := firstKeys[i%len(sweepAdversaries)]; ref == nil {
			firstKeys[i%len(sweepAdversaries)] = keys
		} else {
			for name, k := range keys {
				if ref[name] != k {
					problems = append(problems, "sweep not deterministic: "+name)
				}
			}
		}
		firstRec = append(firstRec, first)
		busy = append(busy, sum/(float64(runtime.GOMAXPROCS(0))*ms(elapsed)))
		w.done(i, opCPU, cellMS, len(recs), counts.messages, counts, digestKeys(keys), problems)
	})
	w.extra["plan.first_record_ms"] = median(firstRec)
	w.extra["plan.worker_busy"] = median(busy)
	return w
}

// digestKeys joins a sweep's record keys in name order.
func digestKeys(keys map[string]string) string {
	names := make([]string, 0, len(keys))
	for n := range keys {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(keys[n])
	}
	return b.String()
}

func (s *sweepSetup) layers(tr *tracer, w *window, m map[string]metric) {
	m["plan.cell_ms"] = metric{median(w.cellMS), "ms"}
	m["plan.worker_busy"] = metric{w.extra["plan.worker_busy"], "ratio"}
	m["plan.first_record_ms"] = metric{w.extra["plan.first_record_ms"], "ms"}
}

func (s *sweepSetup) close(*tally)       {}
func (s *sweepSetup) peakRSSMB() float64 { return peakRSSMB("self") }

// cellTracer turns each plan cell's observer events into spans once its
// record is delivered. Plan.Stream reports a cell's wall time (ElapsedMS)
// but not its start, so a cell's span ends at its delivery and starts
// ElapsedMS earlier; its runtime counters at the start are read when the
// worker that runs it came free — at sweep start for the first `workers`
// cells, else at the delivery `workers` places earlier, because the plan
// dispatches cells in grid order to whichever worker finished last. The
// counters are process-wide, so with two workers a cell's allocation counts
// include whatever the other worker allocated meanwhile.
type cellTracer struct {
	t       *tracer
	run     string
	parent  int64
	rt      rtReader
	workers int
	index   map[string]int // cell name → grid position
	obs     map[string]*runObserver
	freed   []rtSample // runtime readings as workers came free, in order
	start   int64      // when the sweep was called
	first   int64      // the earliest cell start
}

func newCellTracer(t *tracer, run string, parent int64) *cellTracer {
	if t == nil {
		return nil
	}
	c := &cellTracer{t: t, run: run, parent: parent, rt: newRTReader(), workers: runtime.GOMAXPROCS(0),
		index: map[string]int{}, obs: map[string]*runObserver{}}
	c.freed = append(c.freed, c.rt.read())
	c.start, c.first = t.now(), -1
	return c
}

// finish records the plan's expansion — validating the axes, building the
// topology, assembling each cell's Scenario — as the span from the call to
// the first cell's start.
func (c *cellTracer) finish() {
	if c == nil || c.first < 0 {
		return
	}
	c.t.record(c.run, c.parent, "mobilecongest.plan.expand", c.start, c.first)
}

// observers is the Plan.Observers hook; Plan.Stream calls it once per cell,
// in grid order, while expanding the plan.
func (c *cellTracer) observers(name string) []mc.Observer {
	o := newRunObserver(c.t)
	c.index[name] = len(c.index)
	c.obs[name] = o
	return []mc.Observer{o}
}

func (c *cellTracer) delivered(r mc.Record) {
	if c == nil {
		return
	}
	end, rtEnd := c.t.now(), c.rt.read()
	start := end - int64(r.ElapsedMS*1e6)
	if c.first < 0 || start < c.first {
		c.first = start
	}
	rtStart := c.freed[0]
	if j := c.index[r.Name] - c.workers; j >= 0 && j+1 < len(c.freed) {
		rtStart = c.freed[j+1]
	}
	c.freed = append(c.freed, rtEnd)
	if o := c.obs[r.Name]; o != nil {
		o.emit(c.run, c.parent, "mobilecongest.plan.cell", start, end, rtStart, rtEnd)
	}
}
