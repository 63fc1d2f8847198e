package minhash

import (
	"math"

	"github.com/metagenomics/mrmcminh/internal/kmer"
)

// EmptyMin is the signature slot value for a feature set with no elements
// (e.g. a read shorter than k): no hash value was observed.
const EmptyMin = math.MaxUint64

// Signature is the fixed-size sketch of one sequence: the minimum hash
// value under each function of a HashFamily (Eq. 4).
type Signature []uint64

// Sketcher computes signatures from k-mer feature sets.
type Sketcher struct {
	Family *HashFamily
}

// NewSketcher returns a Sketcher drawing n hash functions for k-mers of
// size k with the given seed.
func NewSketcher(n, k int, seed int64) (*Sketcher, error) {
	f, err := NewHashFamily(n, kmer.FeatureSpace(k), seed)
	if err != nil {
		return nil, err
	}
	return &Sketcher{Family: f}, nil
}

// MustSketcher is NewSketcher panicking on error.
func MustSketcher(n, k int, seed int64) *Sketcher {
	s, err := NewSketcher(n, k, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// N returns the signature length.
func (s *Sketcher) N() int { return s.Family.N() }

// Sketch computes the minwise signature of a feature set. An empty set
// yields a signature of EmptyMin slots.
func (s *Sketcher) Sketch(set kmer.Set) Signature {
	sig := make(Signature, s.Family.N())
	for i := range sig {
		sig[i] = EmptyMin
	}
	for x := range set {
		s.observe(sig, x)
	}
	return sig
}

// SketchSlice computes the signature of a k-mer occurrence slice (duplicate
// occurrences do not change the minimum, so Sketch(Set) and
// SketchSlice(Slice) of the same sequence agree).
func (s *Sketcher) SketchSlice(kms []uint64) Signature {
	return s.SketchInto(nil, kms)
}

// SketchInto computes the signature of a k-mer occurrence slice into dst,
// reusing dst's backing array when it has capacity (pass nil to
// allocate). It returns exactly the same signature as SketchSlice but
// runs the hash lanes four at a time over the whole feature slice,
// keeping the running minima in registers instead of re-loading the
// signature slot on every feature — the batched kernel behind the
// pipeline's sketch map tasks. When the range M is a power of two (the
// k-mer space 4^k always is) the final reduction is a mask instead of a
// division.
func (s *Sketcher) SketchInto(dst Signature, kms []uint64) Signature {
	f := s.Family
	n := f.N()
	if cap(dst) < n {
		dst = make(Signature, n)
	}
	dst = dst[:n]
	switch {
	case len(kms) == 0:
		for i := range dst {
			dst[i] = EmptyMin
		}
	case f.M&(f.M-1) == 0:
		sketchMasked(dst, kms, f.A, f.B, f.M-1)
	default:
		sketchMod(dst, kms, f.A, f.B, f.M)
	}
	return dst
}

// sketchMasked is SketchInto's kernel for a power-of-two range:
// h mod M == h & (M-1).
func sketchMasked(dst Signature, kms, A, B []uint64, mask uint64) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		a0, a1, a2, a3 := A[i], A[i+1], A[i+2], A[i+3]
		b0, b1, b2, b3 := B[i], B[i+1], B[i+2], B[i+3]
		m0, m1, m2, m3 := uint64(EmptyMin), uint64(EmptyMin), uint64(EmptyMin), uint64(EmptyMin)
		for _, x := range kms {
			m0 = min(m0, mulAddMod61(a0, x, b0)&mask)
			m1 = min(m1, mulAddMod61(a1, x, b1)&mask)
			m2 = min(m2, mulAddMod61(a2, x, b2)&mask)
			m3 = min(m3, mulAddMod61(a3, x, b3)&mask)
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = m0, m1, m2, m3
	}
	for ; i < len(dst); i++ {
		m := uint64(EmptyMin)
		for _, x := range kms {
			m = min(m, mulAddMod61(A[i], x, B[i])&mask)
		}
		dst[i] = m
	}
}

// sketchMod is SketchInto's kernel for any other range M.
func sketchMod(dst Signature, kms, A, B []uint64, M uint64) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		a0, a1, a2, a3 := A[i], A[i+1], A[i+2], A[i+3]
		b0, b1, b2, b3 := B[i], B[i+1], B[i+2], B[i+3]
		m0, m1, m2, m3 := uint64(EmptyMin), uint64(EmptyMin), uint64(EmptyMin), uint64(EmptyMin)
		for _, x := range kms {
			m0 = min(m0, mulAddMod61(a0, x, b0)%M)
			m1 = min(m1, mulAddMod61(a1, x, b1)%M)
			m2 = min(m2, mulAddMod61(a2, x, b2)%M)
			m3 = min(m3, mulAddMod61(a3, x, b3)%M)
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = m0, m1, m2, m3
	}
	for ; i < len(dst); i++ {
		m := uint64(EmptyMin)
		for _, x := range kms {
			m = min(m, mulAddMod61(A[i], x, B[i])%M)
		}
		dst[i] = m
	}
}

// observe folds one feature into a partial signature.
func (s *Sketcher) observe(sig Signature, x uint64) {
	f := s.Family
	for i := range sig {
		if h := mulAddMod61(f.A[i], x, f.B[i]) % f.M; h < sig[i] {
			sig[i] = h
		}
	}
}

// Empty reports whether the signature was computed from an empty feature set.
func (sig Signature) Empty() bool {
	return len(sig) == 0 || sig[0] == EmptyMin
}

// Equal reports exact slot-wise equality of two signatures.
func (sig Signature) Equal(other Signature) bool {
	if len(sig) != len(other) {
		return false
	}
	for i := range sig {
		if sig[i] != other[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the signature.
func (sig Signature) Clone() Signature {
	out := make(Signature, len(sig))
	copy(out, sig)
	return out
}
