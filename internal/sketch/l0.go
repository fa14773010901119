package sketch

import (
	"mobilecongest/internal/hashfam"
	"mobilecongest/internal/prime"
)

// L0Sampler is the ℓ0-sampling sketch of Theorem 3.4: Query returns a
// (near-)uniform element of the non-zero-frequency support, and Merge
// combines sketches built with the same randomness. The construction is the
// standard level-sampling one: level l subsamples the universe at rate 2^-l
// and keeps a one-sparse triple; Query decodes the lowest level that is
// exactly one-sparse.
type L0Sampler struct {
	seed   uint64
	levels []OneSparse
	lkey   uint64 // level-assignment PRF key
}

// l0Levels covers supports up to 2^40 elements — far beyond any stream here.
const l0Levels = 40

// NewL0Sampler creates an empty sampler from the given randomness seed.
// Samplers merge only when created from equal seeds.
func NewL0Sampler(seed uint64) *L0Sampler {
	s := &L0Sampler{seed: seed, lkey: mix64(seed ^ 0x9e3779b97f4a7c15)}
	s.levels = make([]OneSparse, l0Levels)
	for i := range s.levels {
		s.levels[i] = newOneSparse(seed + uint64(i)*0x2545f4914f6cdd1d)
	}
	return s
}

// level returns the deepest level element e participates in: e is in levels
// 0..level(e).
func (s *L0Sampler) level(e Elem) int {
	h := prf64(s.lkey, e)
	l := 0
	for l < l0Levels-1 && h&1 == 1 {
		l++
		h >>= 1
	}
	return l
}

// Update adds element e with frequency freq.
func (s *L0Sampler) Update(e Elem, freq int64) {
	top := s.level(e)
	for l := 0; l <= top; l++ {
		s.levels[l].Update(e, freq)
	}
}

// Merge folds another sampler (same seed) into s.
func (s *L0Sampler) Merge(other *L0Sampler) {
	for i := range s.levels {
		s.levels[i].Merge(&other.levels[i])
	}
}

// Query returns a sample from the support, scanning from the sparsest
// (deepest) level down. ok=false when the support appears empty or no level
// is one-sparse (constant failure probability; callers run Theta(log n)
// independent samplers).
func (s *L0Sampler) Query() (Elem, int64, bool) {
	for l := l0Levels - 1; l >= 0; l-- {
		if s.levels[l].IsEmpty() {
			continue
		}
		if e, f, ok := s.levels[l].Decode(); ok {
			return e, f, true
		}
	}
	return Elem{}, 0, false
}

// Empty reports whether every level is consistent with an empty support.
func (s *L0Sampler) Empty() bool {
	for _, l := range s.levels {
		if !l.IsEmpty() {
			return false
		}
	}
	return true
}

// Encode serializes the sampler (32 bytes per level).
func (s *L0Sampler) Encode() []byte {
	out := make([]byte, 0, 32*len(s.levels))
	for _, l := range s.levels {
		out = l.appendTo(out)
	}
	return out
}

// DecodeL0Sampler parses a sampler wire image produced with the same seed.
// Corrupted bytes yield a garbage (but well-formed) sampler.
func DecodeL0Sampler(seed uint64, data []byte) *L0Sampler {
	s := NewL0Sampler(seed)
	for i := range s.levels {
		s.levels[i].read(data, 32*i)
	}
	return s
}

// EncodedL0Size is the wire size of an encoded sampler.
const EncodedL0Size = 32 * l0Levels

// XorFold derives auxiliary seeds; exported for the compilers that must
// derive per-(tree, iteration, sampler) seeds from one broadcast seed.
func XorFold(seed uint64, parts ...uint64) uint64 {
	h := hashfam.NewFingerprint(seed)
	return prime.Mod61(h.Hash64(parts))
}
