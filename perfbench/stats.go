package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is the number of samples the reported tail must leave beyond
// it: a tail percentile resting on fewer samples is noise.
const tailBeyond = 10

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail is the highest percentile with at least tailBeyond samples strictly
// beyond it.
type tail struct {
	Value      float64 // the sample at that percentile
	Percentile float64 // in [0, 100): the share of samples at or below Value
	Samples    int     // total sample count
	OK         bool    // false when there are too few samples for any tail
}

// tailOf picks the sample with exactly tailBeyond samples above it in sorted
// order. Its percentile is the share of samples at or below it.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n <= tailBeyond {
		return tail{Samples: n}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 1 - tailBeyond
	return tail{Value: s[i], Percentile: 100 * float64(i+1) / float64(n), Samples: n, OK: true}
}

func (t tail) String() string {
	if !t.OK {
		return fmt.Sprintf("no tail (%d samples, need > %d)", t.Samples, tailBeyond)
	}
	return fmt.Sprintf("p%.1f of %d samples", t.Percentile, t.Samples)
}

// tally counts attempted and failed operations. A failure is a run error, a
// record error, a non-200 status (429 included), or an output mismatch; one
// operation fails at most once however many of those it hits.
type tally struct {
	attempted int
	failed    int
	reasons   []string // the first few failure reasons, for the log
}

const keepReasons = 8

// op records one attempted operation; problems lists what went wrong with
// it (empty means it succeeded).
func (t *tally) op(problems ...string) {
	t.attempted++
	if len(problems) == 0 {
		return
	}
	t.failed++
	for _, p := range problems {
		if len(t.reasons) < keepReasons {
			t.reasons = append(t.reasons, p)
		}
	}
}

// fail marks a benchmark-level problem (a failed check that belongs to no
// single operation, such as a leftover server process) as one more failed
// operation.
func (t *tally) fail(problem string) { t.op(problem) }

// errorRate is failed ÷ attempted.
func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failed) / float64(t.attempted)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) {
		return 0
	}
	return a / b
}
