package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/metagenomics/mrmcminh/internal/ingest"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/minhash"
)

// The serving benchmarks drive the full HTTP request path — JSON decode,
// inline sketch, bounded-queue commit with WAL group fsync, JSON encode —
// under sustained concurrent load, and report tail latency via the
// server's own histogram: p50-ns/req and p99-ns/req land in the
// BENCH_serving.json "extra" object that cmd/benchgate gates in CI.

func benchParams() Params {
	return Params{
		K: 12, NumHashes: 64, Seed: 3, Canonical: true,
		Theta: 0.4, Estimator: minhash.SetOverlap, UseLSH: true,
	}
}

// benchCorpus builds batched JSON submit bodies over a synthetic
// community (mutated copies of base sequences).
func benchCorpus(p Params, batches, batchSize int) [][]byte {
	const bases = "ACGT"
	rng := uint64(99)
	next := func(m uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % m
	}
	base := make([][]byte, 20)
	for b := range base {
		base[b] = make([]byte, 200)
		for j := range base[b] {
			base[b][j] = bases[next(4)]
		}
	}
	out := make([][]byte, batches)
	n := 0
	for i := range out {
		req := submitRequest{Reads: make([]submitRead, batchSize)}
		for j := range req.Reads {
			seq := append([]byte(nil), base[next(uint64(len(base)))]...)
			for m := uint64(0); m < 6; m++ {
				seq[next(uint64(len(seq)))] = bases[next(4)]
			}
			req.Reads[j] = submitRead{ID: fmt.Sprintf("bench-%07d", n), Seq: string(seq)}
			n++
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		out[i] = body
	}
	return out
}

// BenchmarkServingSustainedLoad: 8 concurrent clients submitting
// 32-read batches against a live server. ns/op is per submitted batch;
// the extra metrics carry the end-to-end latency distribution.
func BenchmarkServingSustainedLoad(b *testing.B) {
	st, err := Open(b.TempDir(), benchParams(), false, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv, err := NewServer(st, ServerConfig{MaxInFlight: 256, QueueDepth: 64})
	if err != nil {
		b.Fatal(err)
	}
	hts := httptest.NewServer(srv.Mux())
	defer hts.Close()

	const batchSize = 32
	bodies := benchCorpus(benchParams(), b.N, batchSize)
	client := hts.Client()
	client.Transport = &http.Transport{MaxIdleConnsPerHost: 16}

	const workers = 8
	work := make(chan []byte, workers)
	var wg sync.WaitGroup
	var failures int
	var mu sync.Mutex
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range work {
				resp, err := client.Post(hts.URL+"/v1/reads", "application/json", bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					failures++
					mu.Unlock()
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					mu.Lock()
					failures++
					mu.Unlock()
				}
			}
		}()
	}
	for _, body := range bodies {
		work <- body
	}
	close(work)
	wg.Wait()
	b.StopTimer()
	if failures > 0 {
		b.Fatalf("%d failed submits", failures)
	}
	b.ReportMetric(float64(srv.Latency.Quantile(0.50)), "p50-ns/req")
	b.ReportMetric(float64(srv.Latency.Quantile(0.99)), "p99-ns/req")
	elapsed := b.Elapsed()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*batchSize)/elapsed.Seconds(), "reads/sec")
	}
}

// BenchmarkServingQuery measures the lock-free query path the way real
// clients hit it: multiple workers, each multiplexing a pipelined
// keep-alive connection, issuing a mixed load of point lookups
// (GET /v1/reads/{id}), cluster listings, and diversity summaries.
// ns/op is per query; queries/sec lands in BENCH_serving.json "extra"
// and is gated by scripts/bench_gate.sh. The raw HTTP/1.1 client keeps
// the measurement on the server — net/http's client transport costs
// more CPU than the epoch-published read path being measured.
func BenchmarkServingQuery(b *testing.B) {
	p := benchParams()
	st, err := Open(b.TempDir(), p, false, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()

	srv, err := NewServer(st, ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	hts := httptest.NewServer(srv.Mux())
	defer hts.Close()
	const n = 2000
	bodies := benchCorpus(p, n/100, 100)
	client := hts.Client()
	for _, body := range bodies {
		resp, err := client.Post(hts.URL+"/v1/reads", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}

	// The query mix: mostly point lookups, with the memoized summary
	// endpoints interleaved (1/16 each).
	reqs := make([][]byte, 16)
	for i := range reqs {
		switch i {
		case 7:
			reqs[i] = []byte("GET /v1/clusters HTTP/1.1\r\nHost: bench\r\n\r\n")
		case 15:
			reqs[i] = []byte("GET /v1/diversity HTTP/1.1\r\nHost: bench\r\n\r\n")
		default:
			reqs[i] = []byte(fmt.Sprintf("GET /v1/reads/bench-%07d HTTP/1.1\r\nHost: bench\r\n\r\n", (i*131)%n))
		}
	}

	addr := hts.Listener.Addr().String()
	const workers = 8
	const pipeline = 64 // requests written per batch before reading replies
	var next atomic.Int64
	var failures atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				failures.Add(1)
				return
			}
			defer conn.Close()
			br := bufio.NewReaderSize(conn, 64<<10)
			var out bytes.Buffer
			for {
				start := next.Add(pipeline) - pipeline
				if start >= int64(b.N) {
					return
				}
				count := int(min(int64(pipeline), int64(b.N)-start))
				out.Reset()
				for i := 0; i < count; i++ {
					out.Write(reqs[(int(start)+i+worker)%len(reqs)])
				}
				if _, err := conn.Write(out.Bytes()); err != nil {
					failures.Add(1)
					return
				}
				for i := 0; i < count; i++ {
					resp, err := http.ReadResponse(br, nil)
					if err != nil {
						failures.Add(1)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						failures.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	if f := failures.Load(); f > 0 {
		b.Fatalf("%d failed queries", f)
	}
	if elapsed := b.Elapsed(); elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/sec")
	}
}

// BenchmarkExactCommit measures the exact-mode daemon's (no -lsh) cost
// per committed read once the corpus already holds 1k, 4k or 16k reads,
// straight through State.CommitBatch: WAL append and fsync, store put,
// and the online Algorithm 1 search over every representative so far.
// Reads are mutated copies of one random base per four reads, so the
// representatives grow with the corpus. ns/read is per committed read.
func BenchmarkExactCommit(b *testing.B) {
	p := benchParams()
	p.UseLSH = false
	sk, err := minhash.NewSketcher(p.NumHashes, p.K, p.Seed)
	if err != nil {
		b.Fatal(err)
	}
	ex := &kmer.Extractor{K: p.K, Canonical: p.Canonical}
	rng := rand.New(rand.NewSource(7))
	bases := map[int][]byte{}
	read := func(n int) ingest.Sketched {
		base, ok := bases[n/4]
		if !ok {
			base = make([]byte, 200)
			for j := range base {
				base[j] = "ACGT"[rng.Intn(4)]
			}
			bases[n/4] = base
		}
		seq := slices.Clone(base)
		for m := 0; m < 6; m++ {
			seq[rng.Intn(len(seq))] = "ACGT"[rng.Intn(4)]
		}
		return ingest.Sketched{ID: fmt.Sprintf("exact-%07d", n), Sig: sk.Sketch(ex.Set(seq))}
	}
	const batchSize = 64
	for _, preload := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("preload=%d", preload), func(b *testing.B) {
			st, err := Open(b.TempDir(), p, false, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			n := 0
			batch := func(size int) []ingest.Sketched {
				out := make([]ingest.Sketched, size)
				for i := range out {
					out[i] = read(n)
					n++
				}
				return out
			}
			for n < preload {
				if _, err := st.CommitBatch(batch(min(1000, preload-n))); err != nil {
					b.Fatal(err)
				}
			}
			fresh := make([][]ingest.Sketched, b.N)
			for i := range fresh {
				fresh[i] = batch(batchSize)
			}
			b.ResetTimer()
			for _, f := range fresh {
				if _, err := st.CommitBatch(f); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/read")
		})
	}
}
