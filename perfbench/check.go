package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/metagenomics/mrmcminh/internal/dfs"
	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/metrics"
)

// partitionDigest hashes a clustering as a partition of the read IDs:
// labels are renumbered by first appearance, so two runs that group the
// reads identically digest identically whatever numbers they use.
func partitionDigest(ids []string, labels []int) string {
	h := sha256.New()
	canon := map[int]uint32{}
	var b [4]byte
	for i, id := range ids {
		c, ok := canon[labels[i]]
		if !ok {
			c = uint32(len(canon))
			canon[labels[i]] = c
		}
		h.Write([]byte(id))
		binary.LittleEndian.PutUint32(b[:], c)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkLabels fails when any read is unlabelled and returns the
// partition digest and weighted accuracy of the labelling.
func checkLabels(ids []string, labels []int, truth []string) (string, float64, error) {
	if len(labels) != len(ids) {
		return "", 0, fmt.Errorf("%d labels for %d reads", len(labels), len(ids))
	}
	for i, l := range labels {
		if l < 0 {
			return "", 0, fmt.Errorf("read %s is unlabelled", ids[i])
		}
	}
	acc, err := metrics.WeightedAccuracy(metrics.Clustering(labels), truth)
	if err != nil {
		return "", 0, err
	}
	return partitionDigest(ids, labels), acc, nil
}

// labelsFromMap orders a read-ID -> label map by ids; a missing read
// gets -1, which checkLabels rejects.
func labelsFromMap(ids []string, m map[string]int) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		l, ok := m[id]
		if !ok {
			l = -1
		}
		out[i] = l
	}
	return out
}

// checkDigests fails the report when the runs of one invocation disagree
// or differ from the reference digest want ("" when none is recorded).
func checkDigests(rep *report, digests []string, want string) {
	if len(digests) == 0 {
		return
	}
	for i, d := range digests {
		if d != digests[0] {
			rep.failCheck("run %d digest %s differs from run 0's %s", i, d, digests[0])
		}
	}
	switch {
	case want == "":
		rep.note("no reference digest for this seed and scale: checked run-to-run agreement only")
	case digests[0] != want:
		rep.failCheck("digest %s differs from the recorded reference %s", digests[0], want)
	}
	rep.Digest = digests[0]
}

// refFile holds the digests recorded at full scale: workload -> seed ->
// digest. A batch run whose seed has an entry must reproduce it.
const refFile = "refs.json"

// recordRefs writes refs.json's content to w: one front-door call per
// batch workload and seed, at full scale.
func recordRefs(w io.Writer, work string, seeds []int64) error {
	refs := map[string]map[string]string{}
	for _, wl := range workloads {
		if wl.door == doorDaemon {
			continue
		}
		refs[wl.name] = map[string]string{}
		for _, seed := range seeds {
			reads, truth, err := wl.gen(seed, 1)
			if err != nil {
				return err
			}
			path := filepath.Join(work, "refs.fa")
			if err := fasta.WriteFile(path, reads); err != nil {
				return err
			}
			var fs *dfs.FileSystem
			if wl.door == doorPig {
				if fs, err = stage(path); err != nil {
					return err
				}
			}
			ids := make([]string, len(reads))
			for i, r := range reads {
				ids[i] = r.ID
			}
			digest, _, _, _, err := frontDoorCall(wl, fs, reads, ids, truth, nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
			}
			refs[wl.name][fmt.Sprint(seed)] = digest
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", wl.name, seed, digest)
		}
	}
	out, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

func loadRefs(dir string) (map[string]map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(dir, refFile))
	if err != nil {
		return nil, err
	}
	var refs map[string]map[string]string
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("%s: %w", refFile, err)
	}
	return refs, nil
}
