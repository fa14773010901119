package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	mc "mobilecongest"
)

// served-sweep: a mobilesimd built from the tree under test, memory-only
// cache, GOMAXPROCS 1, driven by one closed-loop HTTP client. The client
// walks chains of PlanSpecs ("workers":1, mid-size cells, n 1024 to 4096);
// every request after a chain's first extends the one before with
// one more rep, so half of a chain's cells were served before and, because
// CellSeed keeps the seeds of surviving cells, hit the cache. The only workload through internal/resultcache, HTTP and NDJSON,
// with cache writes (misses put) beside reads (hits). Loads cmd/mobilesimd,
// internal/resultcache, mobilecongest (Plan, PlanSpec) and, inside the
// server, internal/congest and internal/graph; the runtime counters of the
// server process are not observable from the client, so the runtime layer
// reads 0 here. Timings are the server's CPU time.
const (
	// servedWorkers is the server's -max-workers. Each request asks for one
	// worker; the second keeps a request that arrives while the previous
	// one is still releasing its worker from being refused with 429.
	servedWorkers = 2
	// verifyEvery: the records of one chain in verifyEvery are recomputed
	// in-process after the window. Recomputing every chain would take as
	// long as the window itself.
	verifyEvery = 4
)

var (
	// k=4 makes the circulant 8-regular, like the default expander.
	servedTopologies = []struct {
		name string
		k    int
	}{{"circulant", 4}, {"expander", 8}}
	servedNs        = []int{1024, 2048, 4096}
	servedProtocols = []string{"floodmax", "broadcast"}
	servedAdvs      = []string{"none", "flip", "eavesdrop", "drop"}
)

// chainSpec is step (0..2) of chain ch: one rep of the chain's cells (both
// protocols at each n), then two reps, then three. Each step replays every
// cell of the one before and adds exactly one fresh cell per (protocol, n),
// so request times stay in one mode, and half of a chain's served cells are
// replays. Topology and adversary cycle with ch; both topologies are
// 8-regular, so a cell's cost depends on n alone. The seed only draws each
// chain's base seed.
func chainSpec(seed int64, ch, step int) mc.PlanSpec {
	topo := servedTopologies[ch%len(servedTopologies)]
	return mc.PlanSpec{
		Topologies:  []string{topo.name},
		Ns:          servedNs,
		Ks:          []int{topo.k},
		Protocols:   servedProtocols,
		Ps:          []int{6},
		Adversaries: []string{servedAdvs[(ch/2)%len(servedAdvs)]},
		Fs:          []int{2},
		Reps:        step + 1,
		BaseSeed:    rand.New(rand.NewSource(seed ^ int64(ch)*0x5851f42d4c957f2d)).Int63(),
		Workers:     1,
	}
}

const chainSteps = 3

type servedSweep struct {
	cfg  config
	srv  *server
	tal  *tally
	http *http.Client
}

func newServedSweep(cfg config, t *tally) workload {
	return &servedSweep{cfg: cfg, tal: t, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// setup starts a fresh server (stopping the previous one): set-up time is
// the server's CPU time from process start to its first 200 from /healthz.
func (s *servedSweep) setup(tr *tracer) (time.Duration, error) {
	if s.srv != nil {
		if err := s.srv.stop(); err != nil {
			s.tal.fail(err.Error())
		}
		s.srv = nil
	}
	var err error
	id, end := tr.root("setup", "bench.setup")
	defer end()
	tr.timed("setup", id, "mobilesimd.start", func() { s.srv, err = startServer(s.cfg.server, servedWorkers) })
	if err != nil {
		return 0, err
	}
	return s.srv.startCPU, nil
}

func (s *servedSweep) close(t *tally) {
	if s.srv == nil {
		return
	}
	if err := s.srv.stop(); err != nil {
		t.fail(err.Error())
	}
	s.srv = nil
}

func (s *servedSweep) peakRSSMB() float64 { return peakRSSMB(strconv.Itoa(s.srv.cmd.Process.Pid)) }

// statsReply is the part of mobilesimd's /stats document the benchmark reads.
type statsReply struct {
	Cache struct {
		Hits, Misses, Puts, Evictions uint64
	} `json:"cache"`
	SweepsRejected uint64 `json:"sweeps_rejected"`
	Latency        struct {
		P50 float64 `json:"p50"`
	} `json:"sweep_latency_ms"`
}

func (s *servedSweep) stats() (statsReply, error) {
	var st statsReply
	resp, err := s.http.Get(s.srv.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// served is one request's outcome.
type served struct {
	lines     [][]byte
	recs      []mc.Record
	reqMS     float64       // wall time
	cpu       time.Duration // the server's CPU time meanwhile
	ttfrMS    float64
	status    int
	transport error
}

// post sends a spec and reads the NDJSON stream to its end.
func (s *servedSweep) post(sp mc.PlanSpec, tr *tracer, run string) (out served) {
	body, _ := json.Marshal(sp)
	id, end := tr.root(run, "bench.request")
	defer end()
	var t0, t1 int64
	if tr != nil {
		t0 = tr.now()
	}
	start, cpu := time.Now(), s.srv.cpu()
	defer func() { out.cpu = s.srv.cpu() - cpu }()
	resp, err := s.http.Post(s.srv.base+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		out.transport = err
		return out
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return out
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if len(out.lines) == 0 {
			out.ttfrMS = float64(time.Since(start).Microseconds()) / 1000
			if tr != nil {
				t1 = tr.now()
			}
		}
		line := append([]byte(nil), sc.Bytes()...)
		var r mc.Record
		if err := json.Unmarshal(line, &r); err != nil {
			out.transport = fmt.Errorf("bad record line: %w", err)
			return out
		}
		out.lines = append(out.lines, line)
		out.recs = append(out.recs, r)
	}
	out.reqMS = float64(time.Since(start).Microseconds()) / 1000
	if err := sc.Err(); err != nil {
		out.transport = err
	}
	if tr != nil && t1 != 0 {
		t2 := tr.now()
		tr.record(run, id, "mobilesimd.ttfr", t0, t1)
		tr.record(run, id, "mobilesimd.stream", t1, t2)
	}
	return out
}

func (s *servedSweep) measure(more keepGoing, tr *tracer) *window {
	w := newWindow(s.cfg.probe)
	before, err := s.stats()
	if err != nil {
		w.tally.fail("/stats before the window: " + err.Error())
	}
	var ttfr, overhead []float64
	hits := 0
	verify := map[int][]mc.Record{} // chain → every record served for it
	var cold map[string][]byte      // the first line served for each cell of the current chain
	w.drive(more, func(i int) {
		ch, step := i/chainSteps, i%chainSteps
		if step == 0 {
			cold = map[string][]byte{}
		}
		sp := chainSpec(s.cfg.seed, ch, step)
		out := s.post(sp, tr, fmt.Sprintf("req-%d", i))
		var problems []string
		switch {
		case out.transport != nil:
			problems = append(problems, "request: "+out.transport.Error())
		case out.status != http.StatusOK:
			problems = append(problems, fmt.Sprintf("request: status %d", out.status))
		case len(out.recs) != sp.Cells():
			problems = append(problems, fmt.Sprintf("request: %d records, want %d", len(out.recs), sp.Cells()))
		}
		var cellMS []float64
		var fresh float64
		var counts simCounts
		for k, r := range out.recs {
			if r.Error != "" {
				problems = append(problems, "record error: "+r.Error)
			}
			counts.add(simCounts{r.Rounds, r.Messages, r.Bytes, r.CorruptedEdgeRounds})
			if first, ok := cold[r.Name]; ok {
				hits++
				if !bytes.Equal(first, out.lines[k]) {
					problems = append(problems, "cache replay differs from its cold record: "+r.Name)
				}
				continue
			}
			cold[r.Name] = out.lines[k]
			cellMS = append(cellMS, r.ElapsedMS)
			fresh += r.ElapsedMS
		}
		digest := ""
		for _, r := range out.recs {
			digest += recordKey(r)
		}
		if len(out.lines) > 0 {
			ttfr = append(ttfr, out.ttfrMS)
			overhead = append(overhead, out.reqMS-fresh)
		}
		if ch%verifyEvery == int(uint64(s.cfg.seed)%verifyEvery) {
			verify[ch] = append(verify[ch], out.recs...)
		}
		w.done(i, out.cpu, cellMS, len(out.recs), counts.messages, counts, digest, problems)
	})

	after, err := s.stats()
	if err != nil {
		w.tally.fail("/stats after the window: " + err.Error())
	}
	w.extra["hits"] = float64(after.Cache.Hits - before.Cache.Hits)
	w.extra["misses"] = float64(after.Cache.Misses - before.Cache.Misses)
	w.extra["puts"] = float64(after.Cache.Puts - before.Cache.Puts)
	w.extra["evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)
	w.extra["rejected"] = float64(after.SweepsRejected - before.SweepsRejected)
	w.extra["server_p50_ms"] = after.Latency.P50
	w.extra["ttfr_ms"] = median(ttfr)
	w.extra["overhead_ms"] = median(overhead)
	if rej := after.SweepsRejected - before.SweepsRejected; rej > 0 {
		w.tally.fail(fmt.Sprintf("%d requests rejected with 429", rej))
	}
	fmt.Printf("served-sweep: %d records, %d replayed (hit share %.3f); /stats hits %d misses %d\n",
		w.cells, hits, ratio(float64(hits), float64(w.cells)), after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses)
	s.verify(verify, w)
	return w
}

// verify recomputes the sampled chains in-process with Plan.Run and checks
// that every served record equals the in-process record of its cell on
// every field but elapsed_ms. Each mismatch counts as one more failed
// operation.
func (s *servedSweep) verify(chains map[int][]mc.Record, w *window) {
	checked := 0
	for ch, recs := range chains {
		sp := chainSpec(s.cfg.seed, ch, chainSteps-1)
		p, err := sp.Plan()
		if err != nil {
			w.tally.fail("verify: " + err.Error())
			continue
		}
		local, err := p.Run(context.Background())
		if err != nil {
			w.tally.fail("verify: " + err.Error())
			continue
		}
		want := map[string]string{}
		for _, r := range local {
			want[r.Name] = recordKey(r)
		}
		for _, r := range recs {
			checked++
			if want[r.Name] != recordKey(r) {
				w.tally.fail("served record differs from in-process Plan.Run: " + r.Name)
			}
		}
	}
	fmt.Printf("served-sweep: %d served records of %d chains checked against in-process Plan.Run\n", checked, len(chains))
}

func (s *servedSweep) layers(tr *tracer, w *window, m map[string]metric) {
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	hits, misses := w.extra["hits"], w.extra["misses"]
	set("resultcache.hit_ratio", ratio(hits, hits+misses))
	for _, k := range []string{"hits", "misses", "puts", "evictions"} {
		set("resultcache."+k, w.extra[k])
	}
	set("mobilesimd.ttfr_ms", w.extra["ttfr_ms"])
	set("mobilesimd.overhead_ms", w.extra["overhead_ms"])
	set("mobilesimd.server_p50_ms", w.extra["server_p50_ms"])
	set("mobilesimd.rejected", w.extra["rejected"])
	set("plan.cell_ms", median(w.cellMS))
	var busy float64
	for _, x := range w.cellMS {
		busy += x
	}
	set("plan.worker_busy", ratio(busy, ms(w.wall)))
	for _, k := range []string{"runtime.alloc_mb_per_op", "runtime.gc_cycles", "runtime.gc_cpu_fraction"} {
		set(k, 0)
	}
}
