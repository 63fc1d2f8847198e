package sigstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// DefaultShards is the shard fan-out when Config.Shards is zero: wide
// enough that a worker pool of map tasks rarely collides on a shard
// lock, small enough that per-shard overhead stays negligible.
const DefaultShards = 64

// Config fixes a store's geometry. Every signature in a store shares one
// geometry, which is what lets rows live at a fixed stride in contiguous
// arenas and lets packed similarity skip all per-pair validation.
type Config struct {
	// NumHashes is the signature length n (required, >= 1).
	NumHashes int
	// Bits selects the representation: 0 stores full 64-bit signatures;
	// 1..16 stores b-bit packed sketches at ceil(n*b/64) words per read.
	Bits int
	// Shards is the shard count (power of two; 0 means DefaultShards).
	Shards int
}

func (c Config) validate() (Config, error) {
	if c.NumHashes < 1 {
		return c, fmt.Errorf("sigstore: NumHashes must be >= 1, got %d", c.NumHashes)
	}
	if c.Bits < 0 || c.Bits > 16 {
		return c, fmt.Errorf("sigstore: Bits must be in [0,16], got %d", c.Bits)
	}
	if c.Shards == 0 {
		c.Shards = DefaultShards
	}
	if c.Shards < 1 || c.Shards&(c.Shards-1) != 0 {
		return c, fmt.Errorf("sigstore: Shards must be a power of two, got %d", c.Shards)
	}
	return c, nil
}

// stride returns the arena words per stored signature.
func (c Config) stride() int {
	if c.Bits == 0 {
		return c.NumHashes
	}
	return minhash.PackedWords(c.NumHashes, c.Bits)
}

// Store is a concurrent signature store sharded by read-ID hash. Each
// shard owns a contiguous []uint64 arena holding one fixed-stride row per
// signature, an insertion-ordered dense-ID list (the deterministic
// snapshot order), and a position map. Reads take the owning shard's
// RLock; writers its Lock — independent shards never contend.
type Store struct {
	cfg    Config
	stride int
	mask   uint32
	shards []storeShard
	trans  *Translator
	count  atomic.Int64
	// zeroRow is a read-only stride-length run of zeros appended when a
	// shard arena grows, so Put performs no per-read make.
	zeroRow []uint64
}

type storeShard struct {
	mu    sync.RWMutex
	words []uint64         // arena: stride words per row
	ids   []uint32         // row -> dense id, insertion order
	pos   map[uint32]int32 // dense id -> row
	empty []bool           // row -> source signature was empty
}

// New creates an empty store with the given geometry.
func New(cfg Config) (*Store, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	s := &Store{
		cfg:     cfg,
		stride:  cfg.stride(),
		mask:    uint32(cfg.Shards - 1),
		shards:  make([]storeShard, cfg.Shards),
		trans:   NewTranslator(),
		zeroRow: make([]uint64, cfg.stride()),
	}
	for i := range s.shards {
		s.shards[i].pos = make(map[uint32]int32)
	}
	return s, nil
}

// NumHashes returns the signature length n.
func (s *Store) NumHashes() int { return s.cfg.NumHashes }

// Bits returns 0 for full storage or the packing width b.
func (s *Store) Bits() int { return s.cfg.Bits }

// Translator returns the store's read-ID translator.
func (s *Store) Translator() *Translator { return s.trans }

// Len returns the number of stored signatures.
func (s *Store) Len() int { return int(s.count.Load()) }

// mix32 finalizes a 32-bit hash (the lowbias32 constants), spreading
// sequential dense IDs across shards.
func mix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	h *= 0x846ca68b
	h ^= h >> 16
	return h
}

func (s *Store) shardFor(id uint32) *storeShard {
	return &s.shards[mix32(id)&s.mask]
}

// Put stores sig under the dense ID, overwriting any previous row for
// that ID in place. len(sig) must equal the store's NumHashes.
func (s *Store) Put(id uint32, sig minhash.Signature) error {
	if len(sig) != s.cfg.NumHashes {
		return fmt.Errorf("sigstore: signature length %d != store NumHashes %d", len(sig), s.cfg.NumHashes)
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	row, ok := sh.pos[id]
	if !ok {
		row = int32(len(sh.ids))
		sh.ids = append(sh.ids, id)
		sh.pos[id] = row
		sh.words = append(sh.words, s.zeroRow...)
		sh.empty = append(sh.empty, false)
		s.count.Add(1)
	}
	dst := sh.words[int(row)*s.stride : (int(row)+1)*s.stride]
	if s.cfg.Bits == 0 {
		copy(dst, sig)
	} else {
		clear(dst) // CompactInto ORs bits in; overwrites need a clean row
		minhash.CompactInto(dst, sig, s.cfg.Bits)
	}
	sh.empty[row] = sig.Empty()
	return nil
}

// PutBatch stores sigs[i] under dense ID base+i — the ingest shape of the
// pipeline, where dense IDs are read indices.
func (s *Store) PutBatch(base uint32, sigs []minhash.Signature) error {
	for i, sig := range sigs {
		if err := s.Put(base+uint32(i), sig); err != nil {
			return err
		}
	}
	return nil
}

// Ingest translates the string read IDs and stores their signatures,
// returning the dense IDs in key order (appended to dst, reused when it
// has capacity). This is the one call the pipeline makes after the
// sketch stage.
func (s *Store) Ingest(dst []uint32, keys []string, sigs []minhash.Signature) ([]uint32, error) {
	if len(keys) != len(sigs) {
		return nil, fmt.Errorf("sigstore: %d keys vs %d signatures", len(keys), len(sigs))
	}
	dst = s.trans.TranslateBatch(dst, keys)
	for i, sig := range sigs {
		if err := s.Put(dst[i], sig); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// row returns the borrowed arena row and empty flag for a dense ID.
func (s *Store) row(id uint32) ([]uint64, bool, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	row, ok := sh.pos[id]
	if !ok {
		return nil, false, false
	}
	return sh.words[int(row)*s.stride : (int(row)+1)*s.stride : (int(row)+1)*s.stride], sh.empty[row], true
}

// Has reports whether a dense ID is stored.
func (s *Store) Has(id uint32) bool {
	sh := s.shardFor(id)
	sh.mu.RLock()
	_, ok := sh.pos[id]
	sh.mu.RUnlock()
	return ok
}

// ResidentBytes returns the resident signature-arena footprint: the
// number the memory table in the README and the sig-bytes/read benchmark
// metric report. Translator keys and shard bookkeeping are excluded —
// they are identical across representations; the arenas are what b-bit
// packing shrinks.
func (s *Store) ResidentBytes() int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += int64(len(sh.words)) * 8
		sh.mu.RUnlock()
	}
	return total
}
