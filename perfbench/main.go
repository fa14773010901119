// Command perfbench is the repository benchmark: it drives the simulator's
// public entry points over four workloads, checks every output against code
// that shares nothing with the engine, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced run) as one JSON
// line. See README.md for the workloads and metric definitions.
//
//	bash perfbench/run.sh --workload flood-rounds --seed 1 --seconds 25 --trace 0
//
// run.sh builds this program and cmd/mobilesimd from the checkout; the
// served-sweep workload needs the latter's path in --server.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	server   string // mobilesimd binary (served-sweep)
	traceDir string // where the traced run's spans are written
	probe    *speedProbe
}

// setupReps is how many times a run performs its set-up; setup_s is the
// median, so one slow start does not move it.
const setupReps = 9

// workload is one benchmark workload. setup builds everything the timed
// operations use, returns the CPU time that took in the process doing the
// work, and is run setupReps times (the last build is kept); measure runs
// the timed window, traced when tr is non-nil.
type workload interface {
	setup(tr *tracer) (time.Duration, error)
	measure(more keepGoing, tr *tracer) *window
	// layers adds the workload's own per-layer metrics to a traced run's.
	layers(tr *tracer, w *window, m map[string]metric)
	// close releases what setup acquired, reporting problems to t.
	close(t *tally)
	// peakRSSMB is the peak RSS of the process doing the work.
	peakRSSMB() float64
}

var workloads = map[string]func(cfg config, t *tally) workload{
	"sweep-setup":  newSweepSetup,
	"flood-rounds": newFloodRounds,
	"compiled-byz": newCompiledByz,
	"served-sweep": newServedSweep,
}

func main() {
	var cfg config
	var seconds float64
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.server, "server", "", "path to the mobilesimd binary")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "directory for the traced run's span file")
	probe := flag.Bool("speed-probe", false, "run as the host speed probe (speed.go)")
	flag.Parse()
	// One thread on one CPU does all the work, so its CPU time is the
	// work's (cpu.go), and the speed probe runs where it runs (speed.go).
	runtime.GOMAXPROCS(1)
	if *probe {
		runSpeedProbe()
		return
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = traceFlag == 1
	mk, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", strings.Join(names(), ", "))
		os.Exit(2)
	}
	res, err := start(cfg, mk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

func names() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// start pins the process to one CPU, starts the speed probe beside it, and
// runs the benchmark, stopping the probe on the way out.
func start(cfg config, mk func(config, *tally) workload) (result, error) {
	if err := pinToOneCPU(); err != nil {
		return result{}, fmt.Errorf("pinning to one CPU: %w", err)
	}
	var err error
	if cfg.probe, err = startSpeedProbe(); err != nil {
		return result{}, err
	}
	res, err := run(cfg, mk)
	if perr := cfg.probe.stop(); perr != nil && err == nil {
		err = perr
	}
	return res, err
}

// run performs one invocation: set-up, the measured window, checks, and the
// metric summary. An error means the benchmark could not run at all.
func run(cfg config, mk func(config, *tally) workload) (result, error) {
	t := &tally{}
	w := mk(cfg, t)
	defer w.close(t)

	var setupS []float64
	for i := 0; i < setupReps; i++ {
		before := cfg.probe.mustRead()
		cpu, err := w.setup(nil)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, scale(ms(cpu), before, cfg.probe.mustRead())/1000)
	}

	var metrics map[string]metric
	if !cfg.trace {
		win := w.measure(until(cfg.window), nil)
		t.merge(&win.tally)
		metrics = win.endToEnd(median(setupS), w.peakRSSMB())
		fmt.Printf("op_ms_tail: %s\n", tailOf(win.opMS))
		fmt.Printf("window: %d operations in %.3f s wall; unscaled CPU ms per operation p50 %.4g\n",
			len(win.opMS), win.wall.Seconds(), median(win.cpuMS))
		fmt.Printf("speed index: p50 %.4g ms, range %.4g to %.4g (nominal %g)\n",
			median(win.speed), slices.Min(win.speed), slices.Max(win.speed), speedNominal)
	} else {
		// An untraced window over half the time gives the tracing-overhead
		// baseline and the reference outputs for the parity check; the
		// traced window then repeats exactly the operations it ran.
		plain := w.measure(until(cfg.window/2), nil)
		tr := newTracer()
		if _, err := w.setup(tr); err != nil {
			return result{}, fmt.Errorf("traced setup: %w", err)
		}
		traced := w.measure(func(i int) bool { return plain.ops[i] }, tr)
		for _, p := range parity(plain, traced) {
			t.fail(p)
		}
		metrics = layerMetrics(tr, traced)
		w.layers(tr, traced, metrics)
		report(tr, plain, traced)
		t.merge(&plain.tally)
		t.merge(&traced.tally)
		if cfg.traceDir != "" {
			path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
			if err := tr.write(path); err != nil {
				t.fail("writing spans: " + err.Error())
			} else {
				fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
			}
		}
	}
	w.close(t)
	fmt.Printf("error_rate: %.4f (%d failed of %d attempted)\n", t.errorRate(), t.failed, t.attempted)
	for _, r := range t.reasons {
		fmt.Println("failure:", r)
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// merge folds another tally into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, r := range o.reasons {
		if len(t.reasons) < keepReasons {
			t.reasons = append(t.reasons, r)
		}
	}
}

// window is what one measured window observed. Operations are numbered
// from 0, and operation i does the same work in every run with the same
// seed, so results can be compared by index.
type window struct {
	probe   *speedProbe
	wall    time.Duration
	tally   tally
	cpuMS   []float64 // CPU time of each operation
	opMS    []float64 // the same at reference speed, filled in by drive
	speed   []float64 // index readings before operation 0 and after each operation
	cellMS  []float64 // wall time of each plan cell (Record.ElapsedMS)
	cells   int       // records (or runs) completed
	msgs    int       // simulated messages delivered
	ops     map[int]bool
	digests map[int]string     // operation index → digest of its outputs
	extra   map[string]float64 // workload-specific sums
	// counts sums the exact simulation counts of operations below
	// countedOps, which are the same work in every run.
	counts         simCounts
	rtStart, rtEnd rtSample
}

// countedOps is how many leading operations the exact counts cover.
const countedOps = 3

// simCounts are exact counts that a pure performance change leaves alone.
type simCounts struct{ rounds, messages, bytes, corrupted int }

func (c *simCounts) add(o simCounts) {
	c.rounds += o.rounds
	c.messages += o.messages
	c.bytes += o.bytes
	c.corrupted += o.corrupted
}

func newWindow(probe *speedProbe) *window {
	return &window{probe: probe, ops: map[int]bool{}, digests: map[int]string{}, extra: map[string]float64{}}
}

// keepGoing reports whether a window should run operation i.
type keepGoing func(i int) bool

// until keeps going for d from its first call.
func until(d time.Duration) keepGoing {
	var once sync.Once
	var deadline time.Time
	return func(int) bool {
		once.Do(func() { deadline = time.Now().Add(d) })
		return time.Now().Before(deadline)
	}
}

// drive runs operations 0, 1, … one after another until more declines one
// (a closed loop with one client), reads the host speed index around each,
// and records the wall time until the last operation finished. Each
// operation reports its CPU time through done exactly once.
func (w *window) drive(more keepGoing, op func(i int)) {
	rt := newRTReader()
	w.rtStart = rt.read()
	w.speed = append(w.speed[:0], w.probe.mustRead())
	start := time.Now()
	for i := 0; more(i); i++ {
		op(i)
		w.speed = append(w.speed, w.probe.mustRead())
		w.opMS = append(w.opMS, scale(w.cpuMS[i], w.speed[i], w.speed[i+1]))
	}
	w.wall = time.Since(start)
	w.rtEnd = rt.read()
}

// done records one finished operation and the CPU time it took.
func (w *window) done(i int, cpu time.Duration, cellMS []float64, cells, msgs int, counts simCounts, digest string, problems []string) {
	w.ops[i] = true
	if i < countedOps {
		w.counts.add(counts)
	}
	w.cpuMS = append(w.cpuMS, ms(cpu))
	w.cellMS = append(w.cellMS, cellMS...)
	w.cells += cells
	w.msgs += msgs
	if digest != "" {
		w.digests[i] = digest
	}
	w.tally.op(problems...)
}

// endToEnd computes the end-to-end metrics of a window. Every time is CPU
// time at reference speed (speed.go); throughput is per second of it.
func (w *window) endToEnd(setupS, rssMB float64) map[string]metric {
	var secs float64
	for _, x := range w.opMS {
		secs += x / 1000
	}
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"cells_per_s":    {ratio(float64(w.cells), secs), "1/s"},
		"sim_msgs_per_s": {ratio(float64(w.msgs), secs), "1/s"},
		"op_ms_p50":      {median(w.opMS), "ms"},
		"op_ms_tail":     {tailOf(w.opMS).Value, "ms"},
		"peak_rss_mb":    {rssMB, "MB"},
	}
}

// parity compares the outputs of operations both windows ran.
func parity(plain, traced *window) []string {
	var bad []string
	n := 0
	for i, d := range traced.digests {
		if p, ok := plain.digests[i]; ok {
			n++
			if p != d {
				bad = append(bad, fmt.Sprintf("trace parity: operation %d differs traced vs untraced", i))
			}
		}
	}
	if n == 0 {
		bad = append(bad, "trace parity: no operation ran both traced and untraced")
	}
	fmt.Printf("trace parity: %d operations compared, %d differ\n", n, len(bad))
	return bad
}

// report prints the tracing overhead (traced minus untraced, per end-to-end
// metric) and the per-layer self-time accounting of the traced window.
func report(tr *tracer, plain, traced *window) {
	a := plain.endToEnd(0, 0)
	b := traced.endToEnd(0, 0)
	var keys []string
	for k := range a {
		if k != "setup_s" && k != "peak_rss_mb" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("trace overhead %s: traced %.4g - untraced %.4g = %+.4g %s\n",
			k, b[k].Value, a[k].Value, b[k].Value-a[k].Value, a[k].Unit)
	}
	layers, over := accounting(tr.spans)
	var ls []string
	for l := range layers {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	for _, l := range ls {
		fmt.Printf("self time %s: %.1f ms\n", l, layers[l])
	}
	fmt.Printf("accounting: %d root spans over the %.0f%% slack\n", len(over), 100*accountSlack)
	for _, o := range over {
		traced.tally.fail("accounting: " + o)
	}
}

// peakRSSMB reads a process's VmHWM ("self" or a pid) in MB.
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
