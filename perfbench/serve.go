package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/metagenomics/mrmcminh/internal/fasta"
	"github.com/metagenomics/mrmcminh/internal/metrics"
)

// The serve-mixed workload. The generator is this one process with two
// connections (the box's nproc): submits are pipelined onto one raw
// HTTP/1.1 connection on an open-loop schedule, queries run closed-loop
// on the other. Every latency is timed from the request's scheduled
// send time.
const (
	servePreload = 20000 // reads the daemon ingests at start-up (-ingest)
	serveFresh   = 50000 // fresh reads the generator may submit to one daemon
	batchReads   = 32    // reads per POST /v1/reads

	// refRate is the fixed reference submit rate (reads/s), about half
	// of what the daemon sustained at the commit that defined the
	// benchmark; it is a constant so every commit is timed at one rate.
	refRate = 5000.0

	// submitLimit is the latency limit of the sustained-rate ladder.
	submitLimit = 25 * time.Millisecond
	// The ladder starts at ladderStart times the burst throughput (the
	// rate the daemon acks back-to-back batches at) and climbs in steps
	// of ladderGrowth, so the reported rate is resolved to 4%.
	ladderStart    = 0.7
	ladderGrowth   = 1.04
	ladderStep     = 750 * time.Millisecond
	ladderMaxSteps = 16

	// queryThink is the closed query loop's pause between a response and
	// the next request: without it the loop alone would take a core of
	// the two-core box from the daemon.
	queryThink = 2 * time.Millisecond

	burstBatches   = 96 // batches per job_s burst (3,072 reads)
	burstsPerRound = 3
	serveRounds    = 6 // reference phase + burst rounds, each on a fresh daemon

	// maxLag is how late the generator may send (p99) at the reference
	// rate before the round counts as invalid rather than slow; an invalid
	// round is rerun, at most refRetries times per run.
	maxLag     = 10 * time.Millisecond
	refRetries = 3
)

// daemonProc is one running mrmcminhd.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
	err  error
}

// startDaemon execs the daemon over a fresh data dir and returns once
// /readyz answers 200 and the preload is fully acknowledged.
func startDaemon(ctx context.Context, cfg runConfig, w workload, dataDir, preload string, want int, client *http.Client) (*daemonProc, float64, error) {
	t0 := time.Now()
	cmd := exec.Command(cfg.daemon,
		"-addr", "127.0.0.1:0", "-data-dir", dataDir,
		"-k", fmt.Sprint(w.opt.K), "-hashes", fmt.Sprint(w.opt.NumHashes),
		"-theta", fmt.Sprint(w.opt.Theta), "-seed", fmt.Sprint(hashSeed), "-lsh",
		"-ingest", preload)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemonProc{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		// Forward the daemon's log and pick the listen address out of it.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "mrmcminhd: serving on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
			fmt.Fprintln(os.Stderr, line)
		}
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-addrCh:
	case <-d.done:
		return nil, 0, fmt.Errorf("daemon exited before listening: %v", d.err)
	case <-ctx.Done():
		d.kill()
		return nil, 0, ctx.Err()
	}
	for {
		if st, err := getStats(client, d.addr); err == nil && st.Stats.Acked >= int64(want) {
			if resp, err := client.Get("http://" + d.addr + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(t0).Seconds(), nil
				}
			}
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("daemon exited during start-up: %v", d.err)
		case <-ctx.Done():
			d.kill()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemonProc) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		return d.err
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("daemon did not drain within 30s")
	}
}

// kill ends the daemon without a drain and waits for it.
func (d *daemonProc) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

func (d *daemonProc) peakRSSMB() float64 {
	if d.cmd.ProcessState == nil {
		return 0
	}
	return float64(d.cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024
}

// serverStats mirrors the /v1/stats body.
type serverStats struct {
	Stats struct {
		Reads            int   `json:"reads"`
		Clusters         int   `json:"clusters"`
		Acked            int64 `json:"acked"`
		SigBytes         int64 `json:"sig_bytes"`
		Accepted         int64 `json:"accepted"`
		Shed             int64 `json:"shed"`
		DeadlineExceeded int64 `json:"deadline_exceeded"`
		WriteErrors      int64 `json:"write_errors"`
	} `json:"stats"`
}

func getStats(client *http.Client, addr string) (serverStats, error) {
	var st serverStats
	resp, err := client.Get("http://" + addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

type submitRead struct {
	ID  string `json:"id"`
	Seq string `json:"seq"`
}

type submitBody struct {
	Reads []submitRead `json:"reads"`
}

type ack struct {
	ID        string `json:"id"`
	Cluster   int    `json:"cluster"`
	Duplicate bool   `json:"duplicate"`
}

// loadGen owns the generator's two connections and what it learned:
// every acknowledged read and the cluster its ack named.
type loadGen struct {
	addr   string
	client *http.Client // the query connection
	fresh  []fasta.Record
	next   int // index of the next fresh read to submit

	mu        sync.Mutex
	acked     map[string]int
	ackedIDs  []string
	submits   int
	subFailed int
	failures  []string
}

// phase is one open-loop schedule's outcome.
type phase struct {
	lat     []float64 // ms from scheduled send to response, successes only
	lag     []float64 // ms the send ran behind schedule
	sent    int
	failed  int
	elapsed time.Duration
}

func (g *loadGen) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.failures) < 20 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// bodies pre-encodes the generator's next n submit batches.
func (g *loadGen) bodies(n int) [][]byte {
	out := submitBodies(g.fresh, g.next, n)
	g.next += n * batchReads
	return out
}

// submitBodies encodes n POST /v1/reads bodies of batchReads reads each,
// taking reads from fresh starting at index from. Past the end it wraps
// around and suffixes the IDs, so every submitted ID is new.
func submitBodies(fresh []fasta.Record, from, n int) [][]byte {
	out := make([][]byte, n)
	next := from
	for b := range out {
		var req submitBody
		for range batchReads {
			r := fresh[next%len(fresh)]
			id := r.ID
			if next >= len(fresh) {
				id = fmt.Sprintf("%s.%d", r.ID, next/len(fresh))
			}
			req.Reads = append(req.Reads, submitRead{ID: id, Seq: string(r.Seq)})
			next++
		}
		out[b], _ = json.Marshal(req) // plain strings: cannot fail
	}
	return out
}

// openLoop sends the bodies on a fresh pipelined connection, body i due
// at start + i*interval (interval 0 sends them back to back), and waits
// for every response.
func (g *loadGen) openLoop(ctx context.Context, bodies [][]byte, interval time.Duration) (phase, error) {
	var ph phase
	conn, err := net.Dial("tcp", g.addr)
	if err != nil {
		return ph, err
	}
	defer conn.Close()
	type pending struct{ due time.Time }
	queue := make(chan pending, len(bodies)) // one slot per request: sends never block on it
	readDone := make(chan struct{})
	var lat []float64
	failed := 0
	go func() {
		defer close(readDone)
		br := bufio.NewReader(conn)
		for p := range queue {
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				failed++
				g.fail("submit response: %v", err)
				for range queue {
					failed++
				}
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			done := time.Now()
			if err != nil || resp.StatusCode != http.StatusOK {
				failed++
				g.fail("submit: HTTP %d %s %v", resp.StatusCode, bytes.TrimSpace(body), err)
				continue
			}
			var out struct {
				Results []ack `json:"results"`
			}
			if err := json.Unmarshal(body, &out); err != nil {
				failed++
				g.fail("submit ack: %v", err)
				continue
			}
			lat = append(lat, float64(done.Sub(p.due))/float64(time.Millisecond))
			g.mu.Lock()
			for _, a := range out.Results {
				if a.Duplicate {
					continue
				}
				g.acked[a.ID] = a.Cluster
				g.ackedIDs = append(g.ackedIDs, a.ID)
			}
			g.mu.Unlock()
		}
	}()

	bw := bufio.NewWriter(conn)
	start := time.Now()
	var werr error
	for i, body := range bodies {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ph.lag = append(ph.lag, float64(time.Since(due))/float64(time.Millisecond))
		fmt.Fprintf(bw, "POST /v1/reads HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", g.addr, len(body))
		bw.Write(body)
		if werr = bw.Flush(); werr != nil {
			break
		}
		queue <- pending{due: due}
		ph.sent++
		if ctx.Err() != nil {
			break
		}
	}
	close(queue)
	select {
	case <-readDone:
	case <-ctx.Done():
		conn.Close()
		<-readDone
	}
	ph.elapsed = time.Since(start)
	ph.lat, ph.failed = lat, failed+len(bodies)-ph.sent
	g.mu.Lock()
	g.submits += len(bodies)
	g.subFailed += ph.failed
	g.mu.Unlock()
	if werr != nil {
		g.fail("submit send: %v", werr)
	}
	return ph, ctx.Err()
}

// queryLoop runs the closed-loop query mix until stop is closed: 14 of
// 16 point lookups of acknowledged reads, one cluster list, one
// diversity summary.
func (g *loadGen) queryLoop(stop <-chan struct{}, seed int64, preloadIDs []string) (lat []float64, n, failed int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; ; i++ {
		select {
		case <-stop:
			return lat, n, failed
		default:
		}
		var path, id string
		switch i % 16 {
		case 7:
			path = "/v1/clusters"
		case 15:
			path = "/v1/diversity"
		default:
			g.mu.Lock()
			if len(g.ackedIDs) > 0 && rng.Intn(2) == 0 {
				id = g.ackedIDs[rng.Intn(len(g.ackedIDs))]
			} else {
				id = preloadIDs[rng.Intn(len(preloadIDs))]
			}
			g.mu.Unlock()
			path = "/v1/reads/" + id
		}
		t0 := time.Now()
		n++
		resp, err := g.client.Get("http://" + g.addr + path)
		if err != nil {
			failed++
			g.fail("query %s: %v", path, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		d := time.Since(t0)
		if err != nil || resp.StatusCode != http.StatusOK {
			failed++
			g.fail("query %s: HTTP %d %v", path, resp.StatusCode, err)
			continue
		}
		if id != "" {
			var info struct {
				ID      string `json:"id"`
				Cluster int    `json:"cluster"`
			}
			g.mu.Lock()
			want, ok := g.acked[id]
			g.mu.Unlock()
			if err := json.Unmarshal(body, &info); err != nil || info.ID != id || (ok && info.Cluster != want) {
				failed++
				g.fail("point lookup %s returned %s", id, bytes.TrimSpace(body))
				continue
			}
		}
		lat = append(lat, float64(d)/float64(time.Millisecond))
		time.Sleep(queryThink)
	}
}

// ladder finds the highest rate (reads/s) at which submits keep p99
// within submitLimit without a growing backlog.
//
// Every step runs on a freshly started daemon holding only the preload,
// so each rate meets the same corpus and heap, whatever ran before it.
// A failed step is run once more before it counts, so one transient
// stall (a GC cycle, a slow fsync) does not end the ladder; a saturated
// daemon fails both tries.
func ladder(ctx context.Context, from float64, launch func() (*loadGen, func() error, error)) (float64, int, error) {
	steps := 0
	try := func(rate float64) (bool, error) {
		for attempt := 0; attempt < 2 && steps < ladderMaxSteps; attempt++ {
			steps++
			g, stop, err := launch()
			if err != nil {
				return false, err
			}
			interval := intervalFor(rate)
			ph, err := g.openLoop(ctx, g.bodies(int(ladderStep/interval)), interval)
			if serr := stop(); err == nil {
				err = serr
			}
			if err != nil {
				return false, err
			}
			ok := stepPasses(ph)
			fmt.Fprintf(os.Stderr, "perfbench: ladder %.0f reads/s: %d sent, %d failed, p50 %.2f ms, p99 %.2f ms, pass %v\n",
				rate, ph.sent, ph.failed, percentile(ph.lat, 0.5), percentile(ph.lat, 0.99), ok)
			if ok {
				return true, nil
			}
		}
		return false, nil
	}
	// Climb from the start rate; the climb ends at the second failed rate
	// in a row, so one rate failed by noise below the knee does not end
	// it either. If the start rate itself is past the knee, descend until
	// a rate passes.
	pass, failedInRow := 0.0, 0
	for rate := from; failedInRow < 2 && steps < ladderMaxSteps; rate *= ladderGrowth {
		ok, err := try(rate)
		if err != nil {
			return 0, steps, err
		}
		if ok {
			pass, failedInRow = rate, 0
		} else {
			failedInRow++
		}
	}
	for rate := from / ladderGrowth; pass == 0 && steps < ladderMaxSteps; rate /= ladderGrowth {
		ok, err := try(rate)
		if err != nil {
			return 0, steps, err
		}
		if ok {
			pass = rate
		}
	}
	if pass == 0 {
		return 0, steps, fmt.Errorf("no ladder rate passed in %d steps", steps)
	}
	return pass, steps, nil
}

// intervalFor is the gap between batches that submits rate reads/s.
func intervalFor(rate float64) time.Duration {
	return time.Duration(float64(time.Second) * batchReads / rate)
}

// stepPasses: every submit succeeded, p99 is within the limit, and the
// last quarter of the step ran no slower than the first (no backlog).
func stepPasses(ph phase) bool {
	if ph.failed > 0 || len(ph.lat) < 4 {
		return false
	}
	limit := float64(submitLimit) / float64(time.Millisecond)
	q := len(ph.lat) / 4
	first, last := medianOf(ph.lat[:q]), medianOf(ph.lat[len(ph.lat)-q:])
	return percentile(ph.lat, 0.99) <= limit && last <= 2*first+2
}

// runServe drives the serve-mixed workload. The run is a series of
// rounds, each on a freshly started daemon holding only the preload: a
// reference phase (open-loop submits at refRate with the query loop
// alongside), then one job_s burst, then the output checks and a drain.
// Spreading the phases over rounds samples the box's state across the
// whole run instead of one window of it. The sustained-rate ladder
// follows on daemons of its own.
func runServe(ctx context.Context, w workload, cfg runConfig, rep *report) error {
	reads, truth, err := w.gen(cfg.seed, cfg.scale)
	if err != nil {
		return err
	}
	nPre := len(reads) * servePreload / (servePreload + serveFresh)
	dir, err := os.MkdirTemp(cfg.work, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	preload := filepath.Join(dir, "preload.fa")
	if err := fasta.WriteFile(preload, reads[:nPre]); err != nil {
		return err
	}
	truthOf := make(map[string]string, len(reads))
	for i, r := range reads {
		truthOf[r.ID] = truth[i]
	}
	preloadIDs := make([]string, nPre)
	for i := range preloadIDs {
		preloadIDs[i] = reads[i].ID
	}

	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
	defer client.CloseIdleConnections()

	// Every daemon start of the run, exec to ready with the preload
	// acknowledged, is a set-up sample.
	var setups []float64
	var gens []*loadGen
	starts := 0
	launch := func() (*loadGen, *daemonProc, error) {
		d, s, err := startDaemon(ctx, cfg, w, filepath.Join(dir, fmt.Sprint("data", starts)), preload, nPre, client)
		starts++
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, s)
		client.CloseIdleConnections()
		g := &loadGen{addr: d.addr, client: client, fresh: reads[nPre:], acked: map[string]int{}}
		gens = append(gens, g)
		return g, d, nil
	}

	phaseLen := time.Duration(cfg.seconds) * time.Second / (4 * serveRounds)
	interval := intervalFor(refRate)
	var (
		submitLat, queryLat, lags []float64
		bursts, peaks, waccs      []float64
		queries, queryFailed      int
		discarded                 int
		refBodies                 [][]byte
		last                      serverStats
		shed, deadline, writeErrs int64
	)
	for round := 0; round < serveRounds; {
		g, d, err := launch()
		if err != nil {
			return err
		}
		stop := make(chan struct{})
		qDone := make(chan struct{})
		var qLat []float64
		var qN, qFailed int
		go func() {
			defer close(qDone)
			qLat, qN, qFailed = g.queryLoop(stop, cfg.seed+int64(round), preloadIDs)
		}()
		bodies := g.bodies(int(phaseLen / interval))
		ref, err := g.openLoop(ctx, bodies, interval)
		close(stop)
		<-qDone
		if err != nil {
			d.kill()
			return err
		}
		queries += qN
		queryFailed += qFailed
		// A phase in which the generator itself fell behind schedule is
		// invalid, not slow: its timings are discarded and the round runs
		// again. Its failures still count.
		if lag := percentile(ref.lag, 0.99); lag > float64(maxLag)/float64(time.Millisecond) {
			if err := d.stop(); err != nil {
				return err
			}
			rep.note("round %d discarded: generator lag p99 %.1f ms", round, lag)
			if discarded++; discarded > refRetries {
				return fmt.Errorf("invalid run: the generator kept falling behind schedule (p99 lag %.1f ms)", lag)
			}
			continue
		}
		submitLat = append(submitLat, ref.lat...)
		lags = append(lags, ref.lag...)
		queryLat = append(queryLat, qLat...)
		if refBodies == nil {
			refBodies = bodies
		}

		for range burstsPerRound {
			ph, err := g.openLoop(ctx, g.bodies(burstBatches), 0)
			if err != nil {
				d.kill()
				return err
			}
			bursts = append(bursts, ph.elapsed.Seconds())
		}

		if last, err = getStats(client, d.addr); err != nil {
			d.kill()
			return err
		}
		rows, err := assignments(client, d.addr)
		if err != nil {
			d.kill()
			return err
		}
		waccs = append(waccs, g.check(rep, last, rows, nPre, truthOf))
		shed += last.Stats.Shed
		deadline += last.Stats.DeadlineExceeded
		writeErrs += last.Stats.WriteErrors
		if err := d.stop(); err != nil {
			return fmt.Errorf("draining daemon: %w", err)
		}
		peaks = append(peaks, d.peakRSSMB())
		round++
	}

	// The sustained rate is an end-to-end metric: untraced runs only.
	var sustained float64
	if cfg.trace == 0 {
		var steps int
		capacity := burstBatches * batchReads / medianOf(bursts)
		sustained, steps, err = ladder(ctx, ladderStart*capacity, func() (*loadGen, func() error, error) {
			g, d, err := launch()
			if err != nil {
				return nil, nil, err
			}
			return g, d.stop, nil
		})
		if err != nil {
			return err
		}
		rep.note("ladder: %d steps", steps)
	}

	rep.Attempted, rep.Failed = queries, queryFailed
	for _, g := range gens {
		rep.Attempted += g.submits
		rep.Failed += g.subFailed
		for _, f := range g.failures {
			rep.failCheck("%s", f)
		}
	}
	ok := float64(rep.Attempted-rep.Failed) / float64(max(rep.Attempted, 1))
	rep.setSamples("submit_p50_ms", submitLat)
	rep.set("submit_p99_ms", percentile(submitLat, 0.99))
	rep.setSamples("query_p50_ms", queryLat)
	rep.set("query_p99_ms", percentile(queryLat, 0.99))
	rep.set("serve.shed", float64(shed))
	rep.set("serve.deadline_exceeded", float64(deadline))
	rep.set("serve.write_errors", float64(writeErrs))
	rep.set("serve.clusters", float64(last.Stats.Clusters))
	rep.set("loadgen.lag_ms_p99", percentile(lags, 0.99))
	rep.note("reference phases: %d submits, %d queries", len(submitLat), len(queryLat))
	if cfg.trace == 0 {
		rep.setSamples("job_s", bursts)
		rep.set("sustained_reads_per_s", sustained)
		rep.setSamples("w_acc_pct", waccs)
		rep.setSamples("peak_rss_mb", peaks)
		rep.setSamples("setup_s", setups)
		rep.set("ok_pct", 100*ok)
		return nil
	}
	rep.zeroLayers()
	rep.set("sigstore.resident_bytes", float64(last.Stats.SigBytes))
	return replay(w, cfg.traceOut, dir, reads[:nPre], refBodies, true, rep)
}

// assignments fetches the daemon's read -> cluster dump.
func assignments(client *http.Client, addr string) (map[string]int, error) {
	resp, err := client.Get("http://" + addr + "/v1/assignments")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("assignments: HTTP %d", resp.StatusCode)
	}
	rows := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		id, label, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			continue
		}
		c, err := strconv.Atoi(label)
		if err != nil {
			return nil, fmt.Errorf("assignments row %q: %w", sc.Text(), err)
		}
		rows[id] = c
	}
	return rows, sc.Err()
}

// check verifies the daemon's state against what the generator saw and
// returns the weighted accuracy of the final assignments.
func (g *loadGen) check(rep *report, st serverStats, rows map[string]int, nPre int, truthOf map[string]string) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	for id, c := range g.acked {
		got, ok := rows[id]
		switch {
		case !ok:
			rep.failCheck("acked read %s is missing from /v1/assignments", id)
		case got != c:
			rep.failCheck("acked read %s is in cluster %d, its ack named %d", id, got, c)
		}
	}
	n := int64(len(g.acked))
	if st.Stats.Accepted != n {
		rep.failCheck("/v1/stats accepted %d, the generator holds %d acks", st.Stats.Accepted, n)
	}
	if st.Stats.Acked != n+int64(nPre) {
		rep.failCheck("/v1/stats acked %d, want %d preloaded + %d submitted", st.Stats.Acked, nPre, n)
	}
	if len(rows) != nPre+len(g.acked) {
		rep.failCheck("/v1/assignments has %d rows, want %d", len(rows), nPre+len(g.acked))
	}
	var labels metrics.Clustering
	var truth []string
	for id, c := range rows {
		t, ok := truthOf[strings.SplitN(id, ".", 2)[0]]
		if !ok {
			rep.failCheck("/v1/assignments lists unknown read %s", id)
			continue
		}
		labels = append(labels, c)
		truth = append(truth, t)
	}
	acc, err := metrics.WeightedAccuracy(labels, truth)
	if err != nil {
		rep.failCheck("weighted accuracy: %v", err)
	}
	return acc
}
