package rsim

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"mobilecongest/internal/graph"
	"mobilecongest/internal/treepack"
)

// TestViewsConsistencyQuick: for random greedy packings, the Views structure
// is internally consistent — parent/child relations are mutual and depths
// increase by one along edges.
func TestViewsConsistencyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(8)
		c := 2
		if n <= 2*c {
			return true
		}
		g := graph.Circulant(n, c)
		p := treepack.GreedyLowDepth(g, graph.NodeID(n-1), 3, 6, 1)
		views := Views(p)
		for v := 0; v < n; v++ {
			for j, tv := range views[v] {
				if tv.Depth < 0 {
					continue
				}
				// Children must list me as their parent with depth+1.
				for _, ch := range tv.Children {
					cv := views[ch][j]
					if cv.Parent != graph.NodeID(v) || cv.Depth != tv.Depth+1 {
						return false
					}
				}
				// My parent (if any) must list me among its children.
				if tv.Parent >= 0 {
					found := false
					for _, sib := range views[tv.Parent][j].Children {
						if sib == graph.NodeID(v) {
							found = true
						}
					}
					if !found {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestCommitterProperties: a committer commits exactly at the threshold and
// never changes afterwards.
func TestCommitterProperties(t *testing.T) {
	f := func(th uint8, noise []byte) bool {
		threshold := 1 + int(th)%6
		c := &committer{threshold: threshold}
		// Interleave unique noise values with the repeated real value.
		real := []byte{0xAB, 0xCD}
		commits := 0
		for i := 0; i < threshold; i++ {
			if len(noise) > 0 {
				c.Offer([]byte{noise[i%len(noise)], byte(i)})
			}
			if c.Offer(real) {
				commits++
			}
		}
		if !c.done || string(c.value) != string(real) {
			// Unless the noise happened to repeat to threshold first.
			if c.done {
				return true
			}
			return false
		}
		// Further offers must not change the value.
		c.Offer([]byte{9, 9, 9})
		return string(c.value) == string(real)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFrameRoundTripQuick: frames survive encode/scan for arbitrary
// sections; on a duplicate tree id the last section wins, a section cut
// short by a truncated tail is dropped, and truncated frames never panic.
func TestFrameRoundTripQuick(t *testing.T) {
	f := func(a, b, c []byte, cut uint16) bool {
		if len(a) > 1000 || len(b) > 1000 || len(c) > 1000 {
			return true
		}
		var frame []byte
		frame = appendSection(frame, 1, a)
		frame = appendSection(frame, 2, b)
		frame = appendSection(frame, 1, c)
		got1, ok1 := section(frame, 1)
		got2, ok2 := section(frame, 2)
		if _, ok := section(frame, 3); ok || !ok1 || !ok2 || !bytes.Equal(got1, c) || !bytes.Equal(got2, b) {
			return false
		}
		// Cutting into the last section leaves the first one for tree 1;
		// cutting earlier drops whatever is incomplete.
		k := int(cut) % len(frame)
		got1, ok1 = section(frame[:k], 1)
		got2, ok2 = section(frame[:k], 2)
		end1, end2 := 4+len(a), 8+len(a)+len(b)
		switch {
		case k < end1:
			return !ok1 && !ok2
		case k < end2:
			return ok1 && bytes.Equal(got1, a) && !ok2
		default:
			return ok1 && bytes.Equal(got1, a) && ok2 && bytes.Equal(got2, b)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAppendSectionRejectsOversize: a payload too long for the 16-bit
// section length panics instead of being sent with a wrapped length.
func TestAppendSectionRejectsOversize(t *testing.T) {
	if got := appendSection(nil, 3, make([]byte, MaxSectionBytes)); len(got) != 4+MaxSectionBytes {
		t.Fatalf("frame of %d bytes for a maximal section", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized section accepted")
		}
	}()
	appendSection(nil, 3, make([]byte, MaxSectionBytes+1))
}

// mapCommitter is the string-keyed counting committer the slice-based one
// replaced, kept as the reference.
type mapCommitter struct {
	counts    map[string]int
	threshold int
}

func (c *mapCommitter) offer(v []byte) (committed bool, value string) {
	c.counts[string(v)]++
	return c.counts[string(v)] >= c.threshold, string(v)
}

// TestCommitterMatchesMapReference: offered interleaved streams of distinct
// values, the committer commits on the same offer, to the same value, as
// the map version did, and only a new value makes it allocate.
func TestCommitterMatchesMapReference(t *testing.T) {
	f := func(th uint8, stream []uint8) bool {
		threshold := 1 + int(th)%5
		c := &committer{threshold: threshold}
		ref := &mapCommitter{counts: make(map[string]int), threshold: threshold}
		for i, x := range stream {
			v := []byte{x % 4, 0xEE}
			if x%4 == 3 {
				v = v[:0] // an empty section is a value too
			}
			got := c.Offer(v)
			done, want := ref.offer(v)
			if got != done {
				t.Logf("offer %d: committer done=%v, map reference %v", i, got, done)
				return false
			}
			if done {
				return string(c.value) == want && c.value != nil
			}
		}
		return !c.done
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	c := &committer{threshold: 1 << 30}
	seen := []byte{1, 2, 3}
	c.Offer(seen)
	if n := testing.AllocsPerRun(100, func() { c.Offer(seen) }); n != 0 {
		t.Fatalf("re-offering a known value allocates %.1f times", n)
	}
}
