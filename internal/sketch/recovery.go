package sketch

// Recovery is an s-sparse recovery sketch: if the stream's support has at
// most s non-zero-frequency elements, Decode returns all of them exactly
// (w.h.p.). It hashes elements into rows x width one-sparse buckets and
// decodes by peeling. This powers the Õ(D_TP + f) variant of the byzantine
// compiler (Section 1.2.2) and the message-correction procedure of
// Lemma 4.2, both of which need the *full* mismatch list at the root.
type Recovery struct {
	rows  int
	width int
	// buckets holds the rows x width one-sparse triples row-major: bucket
	// (i, j) is buckets[i*width+j].
	buckets []OneSparse
	rowKey  []uint64
}

// NewRecovery creates a sketch for supports up to s elements. It uses
// 2s-wide rows and a logarithmic number of rows, the standard parameters
// under which peeling succeeds w.h.p.
func NewRecovery(seed uint64, s int) *Recovery {
	if s < 1 {
		s = 1
	}
	rows := 6
	width := 2 * s
	r := &Recovery{rows: rows, width: width}
	r.buckets = make([]OneSparse, rows*width)
	for b := range r.buckets {
		r.buckets[b] = newOneSparse(seed ^ (uint64(b+1) * 0x9e3779b97f4a7c15))
	}
	r.rowKey = make([]uint64, rows)
	for i := range r.rowKey {
		r.rowKey[i] = mix64(seed ^ (uint64(i+1) * 0xc2b2ae3d27d4eb4f))
	}
	return r
}

// S returns the sparsity parameter (width/2).
func (r *Recovery) S() int { return r.width / 2 }

// bucket returns the triple element e hashes to in row i.
func (r *Recovery) bucket(row int, e Elem) *OneSparse {
	return &r.buckets[row*r.width+int(prf64(r.rowKey[row], e)%uint64(r.width))]
}

// Update adds element e with frequency freq.
func (r *Recovery) Update(e Elem, freq int64) {
	for i := 0; i < r.rows; i++ {
		r.bucket(i, e).Update(e, freq)
	}
}

// Merge folds another sketch (same seed and sparsity) into r.
func (r *Recovery) Merge(other *Recovery) {
	for b := range r.buckets {
		r.buckets[b].Merge(&other.buckets[b])
	}
}

// clone returns an independent copy (the row keys are immutable and shared).
func (r *Recovery) clone() *Recovery {
	c := *r
	c.buckets = append([]OneSparse(nil), r.buckets...)
	return &c
}

// Item is one recovered (element, net frequency) pair.
type Item struct {
	E    Elem
	Freq int64
}

// Decode peels the sketch and returns the recovered support. ok=false when
// peeling stalls before emptying the sketch (support larger than s, or a
// corrupted sketch).
func (r *Recovery) Decode() (items []Item, ok bool) {
	// Work on a copy so Decode is non-destructive.
	work := r.clone()
	for iter := 0; iter <= 4*len(work.buckets); iter++ {
		progressed := false
		for b := range work.buckets {
			if work.buckets[b].IsEmpty() {
				continue
			}
			e, f, decOK := work.buckets[b].Decode()
			if !decOK {
				continue
			}
			items = append(items, Item{E: e, Freq: f})
			work.Update(e, -f)
			progressed = true
			break
		}
		if !progressed {
			break
		}
	}
	return items, work.residual() == 0
}

// residual counts the non-empty buckets.
func (r *Recovery) residual() int {
	n := 0
	for b := range r.buckets {
		if !r.buckets[b].IsEmpty() {
			n++
		}
	}
	return n
}

// ResidualBuckets returns how many buckets stay non-empty after peeling —
// diagnostic for distinguishing "support slightly over s" from structural
// aggregation loss.
func (r *Recovery) ResidualBuckets() int {
	work := r.clone()
	if items, _ := work.Decode(); items != nil {
		for _, it := range items {
			work.Update(it.E, -it.Freq)
		}
	}
	return work.residual()
}

// Encode serializes the sketch: rows*width one-sparse triples of 32 bytes.
func (r *Recovery) Encode() []byte {
	out := make([]byte, 0, 32*len(r.buckets))
	for b := range r.buckets {
		out = r.buckets[b].appendTo(out)
	}
	return out
}

// EncodedSize returns the wire size for sparsity s.
func EncodedSize(s int) int {
	if s < 1 {
		s = 1
	}
	return 32 * 6 * 2 * s
}

// DecodeRecovery parses a wire image produced with the same seed and
// sparsity. Corrupted bytes yield a garbage (but well-formed) sketch.
func DecodeRecovery(seed uint64, s int, data []byte) *Recovery {
	r := NewRecovery(seed, s)
	for b := range r.buckets {
		r.buckets[b].read(data, 32*b)
	}
	return r
}
