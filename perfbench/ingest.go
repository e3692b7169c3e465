package main

// ingest-live: a primary with standing queries and a sliding window,
// fsyncing every append (-ingest-sync always) to a WAL on disk, and a
// hot-standby follower replicating it into its own WAL. Two clients take
// turns in one closed loop: a writer posts the next seeded batch of a
// wiki-talk edge stream in timestamp order and waits for its ack, then a
// reader sends the next of single counts, batch counts, enumerate pages
// and the standing board on the live dataset and waits for its answer.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"mint"
	"mint/internal/edgelog"
	"mint/internal/obs"
	"mint/internal/replica"
	"mint/internal/server"
)

const (
	// streamScale generates the writer's stream: wiki-talk at 0.1 is
	// 780k edges over 232 days, more than any run consumes.
	streamScale = 0.1
	// liveWindow keeps ~30 days of wiki-talk time, so the live set
	// levels off near 100k edges.
	liveWindow = 30 * day
	// fillBatch is the batch size that fills the first window in set-up.
	fillBatch = 8192
	// probeBatches caps the batches the shadow probes replay.
	probeBatches = 150
	liveName     = "live"
)

// ack is one acknowledged writer batch: its WAL seq, when the ack
// arrived, and the stream range it carried.
type ack struct {
	seq    uint64
	at     time.Time
	lo, hi int
}

type ingestRun struct {
	opts   options
	rec    *Recorder
	stream []mint.Edge
	sync   int

	prim, foll *node
	topo       *Topology
	dir        string
	pos        int // next stream index the writer sends
	batch      int // next writer batch (index into the seeded sizes)
	resend     bool
	sizes      []int
	reads      int // next reader step

	mu     sync.Mutex
	acks   []ack
	writes []Sample
	readsS []Sample
	wrong  []string
	setups []float64
}

func runIngest(o options) (*Result, error) {
	w := &ingestRun{opts: o}
	if o.trace {
		w.rec = NewRecorder()
	}
	var err error
	if w.stream, err = ingestStream(w.rec); err != nil {
		return nil, err
	}
	w.sizes = BatchSizes(o.seed, len(w.stream)/64)
	if w.sync, err = edgelog.ParseSyncPolicy("always"); err != nil {
		return nil, err
	}
	w.dir = filepath.Join(o.dir, fmt.Sprintf("ingest-%d", os.Getpid()))
	defer os.RemoveAll(w.dir)

	ctx := context.Background()
	for i := 0; i < o.setups; i++ {
		if i > 0 {
			if err := w.topo.stop(); err != nil {
				return nil, err
			}
		}
		if err := w.setup(ctx, i); err != nil {
			return nil, err
		}
	}
	w.rec.SetOn(false)
	writer, reader := newClient(w.rec), newClient(w.rec)
	defer writer.close()
	defer reader.close()

	// Warm-up: the registry's live entry, pools and heap growth settle.
	w.load(ctx, writer, reader, 20, 0)
	lo, rlo := len(w.writes), len(w.readsS)
	start := time.Now()
	w.load(ctx, writer, reader, -1, o.duration())
	untraced := w.ackRate(lo, start)
	res := &Result{}
	if o.trace {
		if err := w.traced(ctx, res, writer, reader, untraced); err != nil {
			return nil, err
		}
	}
	if err := w.finalCheck(ctx, writer); err != nil {
		return nil, err
	}
	if !o.trace {
		// heap_mb is read after the final check, with the follower
		// stopped: a follower rebuilds its standing-count baseline graph
		// only when it re-enters catch-up, so whether it holds one at the
		// end depends on timing (a bimodal 8 MB in trial runs).
		if err := w.foll.stop(); err != nil {
			return nil, err
		}
		w.foll, w.topo.Nodes = nil, []*node{w.prim}
		res.set("heap_mb", heapMB())
		res.set("setup_s", median(w.setups))
		res.set("ops_per_s", untraced)
		// lat_* describe the writer loop that drives this workload (ack
		// latency); the class medians describe the reader.
		res.latencies(w.writes[lo:], w.readsS[rlo:])
	}
	if err := w.topo.stop(); err != nil {
		return nil, err
	}
	for _, s := range w.wrong {
		fmt.Println("WRONG", s)
	}
	res.Correct = len(w.wrong) == 0
	res.Attempted = len(w.writes) + len(w.readsS)
	res.Failed = failures(w.writes) + failures(w.readsS)
	return res, nil
}

// setup starts the primary and the follower on fresh WAL directories,
// fills one window through the primary, registers the standing queries,
// and waits for the follower's fingerprint-verified catch-up.
func (w *ingestRun) setup(ctx context.Context, k int) error {
	sp := w.rec.Begin("setup", "setup", 0, "")
	start := time.Now()
	base := filepath.Join(w.dir, fmt.Sprint(k))
	if err := os.RemoveAll(base); err != nil {
		return err
	}
	pcfg := workerConfig(w.rec, obs.New("mintd-primary"))
	// WAL snapshots are off (-ingest-snapshot-every -1): with compaction
	// on, a follower that is one pull behind when the primary compacts
	// is refused the snapshot install and halts "diverged" (see
	// README.md, known defect), which any run reaches within 256 appends.
	pcfg.Ingest = server.IngestConfig{Dir: filepath.Join(base, "primary"), Dataset: liveName,
		Window: liveWindow, SyncEvery: w.sync, SnapshotEvery: -1}
	prim, err := startWorker("primary", pcfg)
	if err != nil {
		return err
	}
	w.prim = prim
	w.topo = &Topology{Front: prim, Nodes: []*node{prim}}
	fcfg := workerConfig(w.rec, obs.New("mintd-follower"))
	fcfg.Ingest = pcfg.Ingest
	fcfg.Ingest.Dir = filepath.Join(base, "follower")
	fcfg.Ingest.Follow = prim.URL
	if err := waitReady(ctx, prim.URL); err != nil {
		return errors.Join(err, w.topo.stop())
	}
	foll, err := startWorker("follower", fcfg)
	if err != nil {
		return errors.Join(err, w.topo.stop())
	}
	w.foll = foll
	// Stop order: the follower first, so its pull loop never outlives
	// the primary it pulls from.
	w.topo.Nodes = []*node{foll, prim}

	c := newClient(nil)
	defer c.close()
	w.pos, w.batch, w.reads, w.resend = 0, 0, 0, false
	w.acks, w.writes, w.readsS = nil, nil, nil
	end := firstWindowEnd(w.stream)
	for seq := uint64(1); w.pos < end; seq++ {
		hi := min(w.pos+fillBatch, end)
		var out server.IngestResponse
		body := ingestBody("fill", seq, w.stream[w.pos:hi])
		if _, err := c.Do(ctx, "POST", prim.URL+"/v1/edges", "fill", body, &out); err != nil {
			return errors.Join(err, w.topo.stop())
		}
		w.pos = hi
	}
	for _, m := range evalMotifs {
		body := []byte(fmt.Sprintf(`{"name":%q,"motif":%q,"delta_seconds":%d}`, m, m, hour))
		if _, err := c.Do(ctx, "POST", prim.URL+"/v1/standing", "register", body, nil); err != nil {
			return errors.Join(err, w.topo.stop())
		}
	}
	if _, err := w.caughtUp(ctx, c); err != nil {
		return errors.Join(err, w.topo.stop())
	}
	w.setups = append(w.setups, time.Since(start).Seconds())
	sp.End()
	return nil
}

// waitReady polls /readyz until it answers 200 (WAL replay done).
func waitReady(ctx context.Context, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, "GET", url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 30s", url)
}

// status fetches a node's replication status.
func status(ctx context.Context, c *Client, url string) (replica.Status, error) {
	var st replica.Status
	_, err := c.Do(ctx, "GET", url+"/v1/replication/status", "status", nil, &st)
	return st, err
}

// caughtUp waits until the follower has applied the primary's last seq
// and reports itself caught up, then compares fingerprints at that seq.
// It returns the primary's status.
func (w *ingestRun) caughtUp(ctx context.Context, c *Client) (replica.Status, error) {
	deadline := time.Now().Add(30 * time.Second)
	var p, f replica.Status
	var err error
	for time.Now().Before(deadline) {
		p, err = status(ctx, c, w.prim.URL)
		if err != nil {
			return p, err
		}
		f, err = status(ctx, c, w.foll.URL)
		if err == nil && f.CaughtUp && f.AppliedSeq == p.AppliedSeq {
			if f.Fingerprint != p.Fingerprint {
				w.wrong = append(w.wrong, fmt.Sprintf("follower fingerprint %s != primary %s at seq %d",
					f.Fingerprint, p.Fingerprint, p.AppliedSeq))
			}
			return p, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return p, fmt.Errorf("follower did not catch up within 30s: primary %+v, follower %+v (%v)", p, f, err)
}

func ingestBody(client string, seq uint64, edges []mint.Edge) []byte {
	req := server.IngestRequest{ClientID: client, ClientSeq: seq, Edges: make([]server.IngestEdge, len(edges))}
	for i, e := range edges {
		req.Edges[i] = server.IngestEdge{Src: int64(e.Src), Dst: int64(e.Dst), Time: int64(e.Time)}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // ints only
	}
	return b
}

// load alternates writer and reader steps, each read right after an
// ack, until the writer has sent batches batches (batches < 0: no
// limit) or, checked before each step, d has passed (d = 0: no limit).
// Taking turns keeps every read's work the same from run to run: read
// concurrently, a request either queued behind an in-progress append or
// did not, a bimodal mix whose share followed the host's speed.
func (w *ingestRun) load(ctx context.Context, writer, reader *Client, batches int, d time.Duration) {
	start := time.Now()
	for n := 0; (batches < 0 || n < batches) && (d == 0 || time.Since(start) <= d) && w.pos < len(w.stream); n++ {
		w.writeStep(ctx, writer)
		w.readStep(ctx, reader)
	}
}

// writeStep posts the next seeded batch and checks its ack. A batch
// that got no ack is sent again, under the same client_seq, by the next
// step: the server's ledger answers "dup" if the lost attempt landed.
func (w *ingestRun) writeStep(ctx context.Context, c *Client) {
	lo := w.pos
	hi := min(lo+w.sizes[w.batch%len(w.sizes)], len(w.stream))
	seq := uint64(w.batch + 1)
	var out server.IngestResponse
	s, err := c.Do(ctx, "POST", w.prim.URL+"/v1/edges", "ack", ingestBody("writer", seq, w.stream[lo:hi]), &out)
	s.Template, s.WallMS = "ack", out.WallMS
	w.mu.Lock()
	defer func() {
		w.writes = append(w.writes, s)
		w.mu.Unlock()
	}()
	if err != nil {
		w.resend = true
		return
	}
	resent := w.resend
	w.batch, w.pos, w.resend = w.batch+1, hi, false
	switch {
	case out.Dup && resent:
		// The lost attempt had landed; nothing was appended twice.
	case out.Dup || out.Accepted != hi-lo:
		// Batches arrive in timestamp order, so none is older than the
		// window: every edge must be accepted, once.
		w.wrong = append(w.wrong, fmt.Sprintf("batch %d: dup=%v, accepted %d of %d", seq, out.Dup, out.Accepted, hi-lo))
		s.Failed = true
	case len(w.acks) > 0 && out.Seq <= w.acks[len(w.acks)-1].seq:
		w.wrong = append(w.wrong, fmt.Sprintf("batch %d: seq %d not after %d", seq, out.Seq, w.acks[len(w.acks)-1].seq))
		s.Failed = true
	default:
		if out.Stale {
			s.Failed = true // loud: the standing fold was refused
		}
		w.acks = append(w.acks, ack{seq: out.Seq, at: time.Now(), lo: lo, hi: hi})
	}
}

// readerCycle is the reader's request order. Enumerate pages are the
// cheapest read and the one most moved by the graph rebuild an append
// leaves to the next read, so the cycle sends three.
var readerCycle = []string{"count", "enum", "batch", "enum", "standing", "enum"}

// readStep sends the reader's next request in readerCycle.
func (w *ingestRun) readStep(ctx context.Context, c *Client) {
	i := w.reads
	w.reads++
	var s Sample
	var err error
	loud := false
	class := readerCycle[i%len(readerCycle)]
	template := class
	switch class {
	case "count":
		var out server.CountResponse
		motif := ReaderMotif(w.opts.seed, i/len(readerCycle))
		template += "/" + motif
		body := Request{Class: class, Dataset: liveName, Motif: motif, Delta: hour}.Body(workerToken)
		s, err = c.Do(ctx, "POST", w.prim.URL+"/v1/count", class, body, &out)
		s.WallMS = out.WallMS
		loud = !out.Exact || out.Degraded || out.Truncated
	case "batch":
		var out server.CountResponse
		body := Request{Class: class, Dataset: liveName, Motifs: evalMotifs, Delta: hour}.Body(workerToken)
		s, err = c.Do(ctx, "POST", w.prim.URL+"/v1/count", class, body, &out)
		s.WallMS = out.WallMS
		loud = !out.Exact || out.Truncated || len(out.PerMotif) != len(evalMotifs)
	case "enum":
		var out server.EnumerateResponse
		body := Request{Class: class, Dataset: liveName, Motif: "M1", Delta: hour}.Body(workerToken)
		s, err = c.Do(ctx, "POST", w.prim.URL+"/v1/enumerate", class, body, &out)
		s.WallMS = out.WallMS
		loud = out.Truncated || len(out.Matches) > enumLimit
	default:
		var out server.StandingListResponse
		s, err = c.Do(ctx, "GET", w.prim.URL+"/v1/standing", class, nil, &out)
		s.WallMS = out.WallMS
		loud = len(out.Standing) != len(evalMotifs)
		for _, sc := range out.Standing {
			loud = loud || sc.Stale
		}
	}
	if err == nil && loud {
		s.Failed = true
	}
	s.Template = template
	w.mu.Lock()
	w.readsS = append(w.readsS, s)
	w.mu.Unlock()
}

// ackBlock is how many consecutive writes one throughput sample spans:
// enough to average the seeded batch sizes.
const ackBlock = 32

// ackRate is the loop's acked batches per second over the writes from
// index lo on (the phase began at start), the reads taken in turn with
// them included in the time: the median over blocks of ackBlock
// consecutive writes, so a burst of interference in one block does not
// move it; the plain rate when there is not one full block.
func (w *ingestRun) ackRate(lo int, start time.Time) float64 {
	writes := w.writes[lo:]
	if len(writes) == 0 {
		return 0
	}
	end := func(s Sample) time.Time { return s.Start.Add(s.Dur) }
	if len(writes) < ackBlock {
		return float64(len(writes)) / end(writes[len(writes)-1]).Sub(start).Seconds()
	}
	var rates []float64
	prev := start
	for i := ackBlock; i <= len(writes); i += ackBlock {
		e := end(writes[i-1])
		rates = append(rates, ackBlock/e.Sub(prev).Seconds())
		prev = e
	}
	return median(rates)
}

// finalCheck verifies the end state: the follower matches the primary's
// fingerprint at the same seq, and the standing board and a live count
// are fresh, at the last seq, and equal to a cold co-mine of the window
// rebuilt from the sent edges.
func (w *ingestRun) finalCheck(ctx context.Context, writer *Client) error {
	if w.resend {
		// The last batch got no ack: settle whether it landed.
		w.writeStep(ctx, writer)
	}
	c := newClient(nil)
	defer c.close()
	prim, err := w.caughtUp(ctx, c)
	if err != nil {
		return err
	}
	var board server.StandingListResponse
	if _, err := c.Do(ctx, "GET", w.prim.URL+"/v1/standing", "standing", nil, &board); err != nil {
		return err
	}
	if board.Seq != prim.AppliedSeq {
		w.wrong = append(w.wrong, fmt.Sprintf("standing board at seq %d, primary at %d", board.Seq, prim.AppliedSeq))
	}
	g, err := mint.NewGraph(window(w.stream[:w.pos]))
	if err != nil {
		return err
	}
	cold, err := mint.CountManyCtx(ctx, g, mint.EvaluationMotifs(mint.Timestamp(hour)), 0, mint.Budget{})
	if err != nil {
		return err
	}
	want := map[string]int64{}
	for _, pm := range cold.PerMotif {
		want[pm.Motif.Name] = pm.Matches
	}
	if len(board.Standing) != len(want) {
		w.wrong = append(w.wrong, fmt.Sprintf("standing board has %d queries, want %d", len(board.Standing), len(want)))
	}
	for _, sc := range board.Standing {
		if sc.Stale || sc.Count != want[sc.Motif] {
			w.wrong = append(w.wrong, fmt.Sprintf("standing %s = %d (stale=%v), cold co-mine %d", sc.Name, sc.Count, sc.Stale, want[sc.Motif]))
		}
	}
	// One last read of the final graph: its count must match too, and it
	// leaves the registry holding the current graph. (A load that raced
	// an append can leave a stale entry behind, which would otherwise
	// hold one extra graph in heap_mb in some runs and not others.)
	var count server.CountResponse
	body := Request{Class: "count", Dataset: liveName, Motif: "M1", Delta: hour}.Body(workerToken)
	if _, err := c.Do(ctx, "POST", w.prim.URL+"/v1/count", "count", body, &count); err != nil {
		return err
	}
	if !count.Exact || count.Count != float64(want["M1"]) {
		w.wrong = append(w.wrong, fmt.Sprintf("final live M1 count %v (exact=%v), cold co-mine %d", count.Count, count.Exact, want["M1"]))
	}
	return nil
}

// traced repeats the load with spans on while polling the follower for
// replication lag, then replays the traced batches into shadow storage
// layers and probes the engines on the final live graph.
func (w *ingestRun) traced(ctx context.Context, res *Result, writer, reader *Client, untraced float64) error {
	lo, rlo := len(w.writes), len(w.readsS)
	acksLo := len(w.acks)
	pos0 := w.pos
	before := w.prim.reg.Snapshot()
	fbefore := w.foll.reg.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	w.rec.SetOn(true)
	lag := w.pollLag(ctx)
	start := time.Now()
	w.load(ctx, writer, reader, -1, w.opts.duration())
	lags := lag()
	runtime.ReadMemStats(&ms1)
	traced := w.ackRate(lo, start)

	after := w.prim.reg.Snapshot()
	fafter := w.foll.reg.Snapshot()
	samples := append(append([]Sample(nil), w.writes[lo:]...), w.readsS[rlo:]...)
	setRuntime(res, ms0, ms1, len(samples))
	res.set("obs.trace_overhead", untraced/traced)
	setFront(res, samples)
	res.set("edgelog.fsyncs", float64(after.Counter("edgelog.fsyncs")-before.Counter("edgelog.fsyncs")))
	res.set("stream.integrations", float64(after.Counter("stream.integrations")-before.Counter("stream.integrations")))
	res.set("replica.applied_records", float64(fafter.Counter("replica.applied_records")-fbefore.Counter("replica.applied_records")))
	sort.Float64s(lags)
	res.set("replica.lag_p50_ms", percentile(lags, 0.5))
	t := tailOf(lags)
	res.set("replica.lag_tail_ms", t.Value)
	fmt.Printf("replica lag: %d batches, tail is p%.0f\n", t.N, t.P*100)

	if err := w.probe(ctx, res, w.acks[acksLo:], pos0); err != nil {
		return err
	}
	w.rec.SetOn(false)
	setSpanMeans(res, w.rec)
	res.set("registry.loads", float64(w.topo.counter("registry.load")))
	res.set("registry.hits", float64(w.topo.counter("registry.hit")))
	for _, name := range []string{"gather.shard_call_ms", "gather.shard_calls", "gather.self_ms", "shard.imbalance"} {
		res.set(name, 0)
	}
	return writeTrace(w.rec, w.opts)
}

// pollLag polls the follower's applied seq every 5 ms until the
// returned stop is called, and returns each acked batch's replication
// lag: from its ack until the first poll that finds it applied. Batches
// still unapplied at stop are left out.
func (w *ingestRun) pollLag(ctx context.Context) (stop func() []float64) {
	c := newClient(nil)
	done := make(chan struct{})
	out := make(chan []float64)
	w.mu.Lock()
	next := len(w.acks)
	w.mu.Unlock()
	go func() {
		defer c.close()
		var lags []float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				out <- lags
				return
			case <-tick.C:
			}
			st, err := status(ctx, c, w.foll.URL)
			if err != nil {
				continue
			}
			now := time.Now()
			w.mu.Lock()
			for ; next < len(w.acks) && w.acks[next].seq <= st.AppliedSeq; next++ {
				lags = append(lags, ms(now.Sub(w.acks[next].at)))
			}
			w.mu.Unlock()
		}
	}()
	return func() []float64 {
		close(done)
		return <-out
	}
}

// probe replays the traced phase's batches (at most probeBatches) into
// a shadow edge log and a shadow stream with the primary's sync policy,
// window and standing queries, times temporal.NewGraph on the live set
// after each batch, times registry reloads of the live dataset, and
// probes the engines on the final live graph.
func (w *ingestRun) probe(ctx context.Context, res *Result, acks []ack, pos0 int) error {
	batches := make([]batchRange, len(acks))
	for i, a := range acks {
		batches[i] = batchRange{a.lo, a.hi}
	}
	if err := probeStorage(ctx, w.rec, filepath.Join(w.dir, "probe"), w.stream, pos0, batches, w.sync); err != nil {
		return err
	}

	reg := w.prim.worker.Datasets()
	for i := 0; i < 20; i++ {
		reg.Invalidate(liveName)
		sp := w.rec.Begin("registry.load", "probe", 0, "")
		_, err := reg.Get(ctx, liveName)
		sp.End()
		if err != nil {
			return err
		}
	}
	g, err := reg.Get(ctx, liveName)
	if err != nil {
		return err
	}
	delta := mint.Timestamp(hour)
	var nodes int64
	for _, m := range mint.EvaluationMotifs(delta) {
		sp := w.rec.Begin("mackey.count", "probe", 0, "")
		r, err := mint.CountParallelCtx(ctx, g, m, 0, mint.Budget{})
		sp.End()
		if err != nil {
			return err
		}
		nodes += r.Stats.NodesExpanded
	}
	sp := w.rec.Begin("comine.batch", "probe", 0, "")
	b, err := mint.CountManyOpts(ctx, g, mint.EvaluationMotifs(delta), mint.BatchOptions{}, mint.Budget{})
	sp.End()
	if err != nil {
		return err
	}
	res.set("mackey.nodes_expanded", float64(nodes))
	res.set("comine.shared_ratio", ratio(b.SharedExpansions, b.Stats.NodesExpanded))
	m1, err := mint.MotifByName("M1", delta)
	if err != nil {
		return err
	}
	sp = w.rec.Begin("enum.mine", "probe", 0, "")
	mint.EnumerateChaosRootsCtx(ctx, g, m1, mint.Budget{MaxMatches: enumLimit}, nil, nil, func([]int32) {})
	sp.End()
	return nil
}
