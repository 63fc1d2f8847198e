package minhash

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// bandHashLegacy is the pre-optimization band hash: a fresh fnv.New64a
// hasher plus an 8-byte scratch buffer per band per signature. Kept as
// the reference for the bit-compatibility test below.
func bandHashLegacy(sig Signature, band, rows int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for r := 0; r < rows; r++ {
		v := sig[band*rows+r]
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func randomSignatures(n, sigLen int, seed int64) []Signature {
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]Signature, n)
	for i := range sigs {
		s := make(Signature, sigLen)
		base := rng.Uint64() % 32 // force bucket collisions
		for j := range s {
			s[j] = base*1000 + uint64(rng.Intn(4))
		}
		sigs[i] = s
	}
	return sigs
}

func TestBandHashMatchesFNV(t *testing.T) {
	for _, sig := range randomSignatures(50, 96, 7) {
		for _, rows := range []int{1, 2, 3, 8} {
			for b := 0; b < len(sig)/rows; b++ {
				got := BandHash(sig, b, rows)
				want := bandHashLegacy(sig, b, rows)
				if got != want {
					t.Fatalf("BandHash(band=%d rows=%d) = %x, legacy fnv = %x", b, rows, got, want)
				}
			}
		}
	}
}

func BenchmarkBandHash(b *testing.B) {
	sig := randomSignatures(1, 100, 3)[0]
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for band := 0; band < 20; band++ {
			sink += BandHash(sig, band, 5)
		}
	}
	_ = sink
}
