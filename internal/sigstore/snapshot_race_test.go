package sigstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// TestSnapshotUnderConcurrentReaders pins the serving-layer contract:
// Snapshot may run while other goroutines read rows, look up
// translations, and ingest NEW reads concurrently. The snapshot must be
// internally consistent (Restore succeeds, hashes verify) and hold at
// least the reads committed before the snapshot started. Run under
// -race in CI.
func TestSnapshotUnderConcurrentReaders(t *testing.T) {
	const numHashes = 32
	s, err := New(Config{NumHashes: numHashes})
	if err != nil {
		t.Fatal(err)
	}
	mkSig := func(i int) minhash.Signature {
		sig := make(minhash.Signature, numHashes)
		for j := range sig {
			sig[j] = uint64(i)*1000003 + uint64(j)
		}
		return sig
	}
	const pre = 150
	for i := 0; i < pre; i++ {
		if _, err := s.Ingest(nil, []string{fmt.Sprintf("pre-%d", i)}, []minhash.Signature{mkSig(i)}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: keeps ingesting new reads during the snapshots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := pre; i < pre+2000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Ingest(nil, []string{fmt.Sprintf("live-%d", i)}, []minhash.Signature{mkSig(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Readers: borrowed-row access and translator lookups.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := uint32((i + r*131) % pre)
				row, _, ok := s.row(id)
				if !ok {
					t.Errorf("row %d missing", id)
					return
				}
				if row[0] != uint64(id)*1000003 {
					t.Errorf("row %d content torn", id)
					return
				}
				if _, ok := s.Translator().Lookup(fmt.Sprintf("pre-%d", id)); !ok {
					t.Errorf("key pre-%d vanished", id)
					return
				}
			}
		}(r)
	}

	// Snapshots race with all of the above.
	for k := 0; k < 4; k++ {
		blob := s.Snapshot()
		restored, err := Restore(blob)
		if err != nil {
			t.Fatalf("snapshot %d failed to restore: %v", k, err)
		}
		if restored.Len() < pre {
			t.Fatalf("snapshot %d holds %d reads, want >= %d", k, restored.Len(), pre)
		}
		// Every pre-existing read must be present with intact content.
		for _, id := range []uint32{0, pre / 2, pre - 1} {
			if row, _, ok := restored.row(id); !ok || row[0] != uint64(id)*1000003 {
				t.Fatalf("snapshot %d: read %d corrupted", k, id)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Quiescent now: snapshotting twice must be byte-identical (the
	// determinism --resume relies on).
	a, b := s.Snapshot(), s.Snapshot()
	if !bytes.Equal(a, b) {
		t.Fatal("quiescent snapshots differ")
	}
}
