package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/ingest"
	"github.com/metagenomics/mrmcminh/internal/kmer"
	"github.com/metagenomics/mrmcminh/internal/minhash"
	"github.com/metagenomics/mrmcminh/internal/serve"
	"github.com/metagenomics/mrmcminh/internal/trace"
)

const (
	replayBatches = 300 // submit bodies replayed in process
	preloadBatch  = 64  // the daemon's default -ingest-batch
)

// replaySamples are one replay's per-batch timings.
type replaySamples struct {
	decode, sketch, commit, append, sync, apply []float64 // per batch
	point, clusters, diversity                  []float64 // per query
	total                                       time.Duration
}

// replay runs submit bodies serially through the serve package's public
// functions, over a state preloaded with preload: decode, sketch,
// State.CommitBatch, a sibling serve.WAL taking the same records, and
// the three queries. It runs once untraced and once inside bench spans;
// the per-layer metrics come from the traced pass, the overhead from the
// pair. With probe set it also runs the layer probes on the preload. The
// traced pass's spans go to traceOut.
func replay(w workload, traceOut, dir string, preload []fasta.Record, bodies [][]byte, probe bool, rep *report) error {
	if len(bodies) > replayBatches {
		bodies = bodies[:replayBatches]
	}
	if len(bodies) == 0 {
		return fmt.Errorf("no submit bodies to replay")
	}
	params := serve.Params{
		K: w.opt.K, NumHashes: w.opt.NumHashes, Seed: hashSeed, Theta: w.opt.Theta,
		Estimator: minhash.SetOverlap, UseLSH: true,
	}
	sk, err := minhash.NewSketcher(params.NumHashes, params.K, params.Seed)
	if err != nil {
		return err
	}
	ex := &kmer.Extractor{K: params.K}
	var pre []ingest.Sketched
	var kms []uint64
	for _, r := range preload {
		kms = ex.SliceInto(kms[:0], r.Seq)
		pre = append(pre, ingest.Sketched{ID: r.ID, Sig: sk.SketchInto(nil, kms)})
	}

	untraced, err := replayOnce(filepath.Join(dir, "replay0"), params, pre, bodies, sk, ex, nil)
	if err != nil {
		return err
	}
	rec := trace.New()
	tr, err := replayOnce(filepath.Join(dir, "replay1"), params, pre, bodies, sk, ex, rec)
	if err != nil {
		return err
	}
	us := func(s []float64) []float64 {
		out := make([]float64, len(s))
		for i, v := range s {
			out[i] = v * 1e6
		}
		return out
	}
	ms := func(s []float64) []float64 {
		out := make([]float64, len(s))
		for i, v := range s {
			out[i] = v * 1e3
		}
		return out
	}
	rep.setSamples("serve.decode_us", us(tr.decode))
	rep.setSamples("serve.sketch_us", us(tr.sketch))
	rep.setSamples("serve.commit_ms", ms(tr.commit))
	rep.setSamples("serve.wal_append_us", us(tr.append))
	rep.setSamples("serve.wal_sync_ms", ms(tr.sync))
	rep.setSamples("serve.apply_ms", ms(tr.apply))
	rep.setSamples("serve.query_us.point", us(tr.point))
	rep.setSamples("serve.query_us.clusters", us(tr.clusters))
	rep.setSamples("serve.query_us.diversity", us(tr.diversity))
	if probe {
		rep.set("trace.overhead_pct", 100*(tr.total.Seconds()/untraced.total.Seconds()-1))
		m := map[string]float64{}
		if err := probeLayers(w, preload, rec, m); err != nil {
			return err
		}
		for k, v := range m {
			if k == "sigstore.resident_bytes" {
				continue // the daemon's own figure, from /v1/stats
			}
			rep.set(k, v)
		}
	}
	return trace.WriteFile(traceOut, rec.Spans())
}

func replayOnce(dir string, params serve.Params, pre []ingest.Sketched, bodies [][]byte, sk *minhash.Sketcher, ex *kmer.Extractor, rec *trace.Recorder) (replaySamples, error) {
	var rs replaySamples
	st, err := serve.Open(dir, params, false, nil)
	if err != nil {
		return rs, err
	}
	defer st.Close()
	for i := 0; i < len(pre); i += preloadBatch {
		if _, err := st.CommitBatch(pre[i:min(i+preloadBatch, len(pre))]); err != nil {
			return rs, err
		}
	}
	wal, err := serve.OpenWAL(filepath.Join(dir, "sibling.log"), 0)
	if err != nil {
		return rs, err
	}
	defer wal.Close()

	span := func(name string, fn func() error) (float64, error) {
		ref := rec.Begin(trace.KindJob, "bench:serve."+name)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0).Seconds()
		rec.End(ref)
		return d, err
	}
	rng := rand.New(rand.NewSource(1))
	start := time.Now()
	for _, body := range bodies {
		var req submitBody
		d, err := span("decode", func() error { return json.Unmarshal(body, &req) })
		if err != nil {
			return rs, err
		}
		rs.decode = append(rs.decode, d)

		batch := make([]ingest.Sketched, len(req.Reads))
		var kms []uint64
		d, _ = span("sketch", func() error {
			for i, r := range req.Reads {
				kms = ex.SliceInto(kms[:0], []byte(r.Seq))
				batch[i] = ingest.Sketched{ID: r.ID, Sig: sk.SketchInto(nil, kms)}
			}
			return nil
		})
		rs.sketch = append(rs.sketch, d)

		commit, err := span("commit", func() error { _, err := st.CommitBatch(batch); return err })
		if err != nil {
			return rs, err
		}
		rs.commit = append(rs.commit, commit)
		appendD, err := span("wal.append", func() error {
			for _, s := range batch {
				if err := wal.Append(s.ID, s.Sig); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return rs, err
		}
		syncD, err := span("wal.sync", wal.Sync)
		if err != nil {
			return rs, err
		}
		rs.append = append(rs.append, appendD)
		rs.sync = append(rs.sync, syncD)
		rs.apply = append(rs.apply, commit-appendD-syncD)

		id := batch[rng.Intn(len(batch))].ID
		d, err = span("query.point", func() error {
			if info, ok := st.Assignment(id); !ok || info.ID != id {
				return fmt.Errorf("replay: read %s not found after its commit", id)
			}
			return nil
		})
		if err != nil {
			return rs, err
		}
		rs.point = append(rs.point, d)
		d, _ = span("query.clusters", func() error { st.Clusters(); return nil })
		rs.clusters = append(rs.clusters, d)
		d, _ = span("query.diversity", func() error { st.Diversity(); return nil })
		rs.diversity = append(rs.diversity, d)
	}
	rs.total = time.Since(start)
	return rs, nil
}
