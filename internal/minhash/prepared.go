package minhash

import "fmt"

// Prepared caches the derived views of a signature that the similarity
// kernels need, so comparing a pair allocates nothing. The all-pairs
// matrix build evaluates O(N²) pairs but only N signatures exist; the
// legacy SetOverlap path re-sorted and re-allocated both signatures for
// every pair. Preparing each signature once amortizes that work to O(N)
// and turns every pair comparison into a single allocation-free merge.
type Prepared struct {
	// Sig is the original signature, used by the matched-positions
	// estimator (slot-wise comparison).
	Sig Signature
	// Vals holds the sorted distinct slot values, used by the set-overlap
	// estimator (sorted-list intersection).
	Vals []uint64
}

// Prepare computes the cached views of one signature.
func Prepare(sig Signature) Prepared {
	return Prepared{Sig: sig, Vals: distinctSorted(sig)}
}

// PrepareAll prepares every signature of a batch.
func PrepareAll(sigs []Signature) []Prepared {
	out := make([]Prepared, len(sigs))
	for i, s := range sigs {
		out[i] = Prepare(s)
	}
	return out
}

// String renders the underlying signature exactly as fmt prints a bare
// Signature, so a Prepared value in textual output (Pig DUMP and STORE)
// reads the same as the signature it caches.
func (p Prepared) String() string { return fmt.Sprint([]uint64(p.Sig)) }

// Empty reports whether the underlying signature came from an empty
// feature set.
func (p Prepared) Empty() bool { return p.Sig.Empty() }

// SimilarityPrepared estimates Jaccard similarity from two prepared
// signatures. It returns exactly the same value as Similarity on the
// underlying signatures (bit-identical floats) but performs zero
// allocations per call, making it the kernel for all-pairs matrix builds
// and greedy representative scans.
func (e Estimator) SimilarityPrepared(a, b Prepared) float64 {
	if a.Empty() || b.Empty() {
		return 0
	}
	switch e {
	case SetOverlap:
		return setOverlapSorted(a.Vals, b.Vals)
	default:
		return matchedPositions(a.Sig, b.Sig)
	}
}

// setOverlapSorted computes |A∩B| / |A∪B| of two sorted distinct value
// lists with a single linear merge.
func setOverlapSorted(sa, sb []uint64) float64 {
	inter := 0
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] == sb[j]:
			inter++
			i++
			j++
		case sa[i] < sb[j]:
			i++
		default:
			j++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
