package main

// read-mix and coord-read: one closed-loop client replaying the seeded
// read rounds, against one worker (read-mix) or a coordinator over two
// full-data workers (coord-read).

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"mint"
	"mint/internal/edgelog"
	"mint/internal/mackey"
	"mint/internal/server"
	"mint/internal/shard"
)

// readOutcome is one sent read request and what came back.
type readOutcome struct {
	q     Request
	s     Sample
	err   error
	count server.CountResponse
	enum  server.EnumerateResponse
}

type readRun struct {
	opts     options
	coord    bool
	datasets []string
	env      Env
	token    func(int64) string
	refs     *Refs
	refEnum  [][]int32
	rec      *Recorder
	topo     *Topology
	client   *Client
	sent     []readOutcome
	setups   []float64
}

func runRead(o options) (*Result, error) {
	w := &readRun{opts: o, coord: o.workload == "coord-read", refs: newRefs(), token: workerToken}
	w.datasets = []string{"email-eu", "wiki-talk", "stackoverflow"}
	if w.coord {
		w.datasets = []string{"email-eu", "wiki-talk", "superuser"}
	}
	if o.trace {
		w.rec = NewRecorder()
	}
	if err := w.prepare(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for i := 0; i < o.setups; i++ {
		if i > 0 {
			if err := w.topo.stop(); err != nil {
				return nil, err
			}
		}
		if err := w.setup(ctx); err != nil {
			return nil, err
		}
	}
	w.rec.SetOn(false)
	w.client = newClient(w.rec)
	defer w.client.close()

	// Warm-up round: lazy set-up (pools, heap growth, the coordinator's
	// shard identities) finishes before timing.
	w.phase(ctx, 0, 1, 0)
	timed := w.phase(ctx, 1, -1, o.duration())
	res := &Result{}
	if o.trace {
		if err := w.traced(ctx, res, w.ops(timed)); err != nil {
			return nil, err
		}
	} else {
		res.set("heap_mb", heapMB())
	}
	stopErr := w.topo.stop()
	wrong, err := w.check()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, stopErr
	}
	res.Correct = wrong == 0
	res.Attempted = len(w.sent)
	res.Failed = failures(samplesOf(w.sent))
	if !o.trace {
		res.set("setup_s", median(w.setups))
		res.set("ops_per_s", w.ops(timed))
		measured := samplesOf(w.complete(timed))
		res.latencies(measured, measured)
	}
	return res, nil
}

// prepare computes the fixed reference answers and the generator's
// dataset facts, then drops the reference graphs.
func (w *readRun) prepare() error {
	for _, q := range Round(w.opts.seed, Env{}, 0, false) {
		if q.Dataset == "superuser" && !w.coord {
			continue
		}
		motifs := q.Motifs
		if q.Class != "batch" {
			motifs = []string{q.Motif}
		}
		for _, m := range motifs {
			if _, err := w.refs.Count(q.Dataset, m, q.Delta, nil); err != nil {
				return err
			}
		}
	}
	all, err := w.refs.Enumerate("wiki-talk", "M1", hour)
	if err != nil {
		return err
	}
	w.refEnum = all
	w.env.EnumTotal = int64(len(all))
	if w.coord {
		g, err := w.refs.graph("wiki-talk")
		if err != nil {
			return err
		}
		plan := shard.PlanForGraph(g, 2, mint.Timestamp(hour))
		if plan.NumShards() != 2 {
			return fmt.Errorf("wiki-talk plans %d shards at δ = 1 h, want 2", plan.NumShards())
		}
		var shard0 int64
		for _, m := range all {
			if plan.Owned(0).Contains(g.Edges[m[0]].Time) {
				shard0++
			}
		}
		w.token = coordToken(shard0)
	}
	w.refs.drop()
	return nil
}

// setup builds the topology and loads every dataset: registry loads on
// each worker (in parallel across workers, as separate processes
// would), then /v1/datasetinfo through the front, which fingerprints
// the graphs (and, on the coordinator, identifies the shards).
func (w *readRun) setup(ctx context.Context) error {
	sp := w.rec.Begin("setup", "setup", 0, "")
	start := time.Now()
	var err error
	if w.coord {
		w.topo, err = coordTopology(w.rec)
	} else {
		w.topo, err = readMixTopology(w.rec)
	}
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(w.topo.Nodes))
	for i, n := range w.topo.Nodes {
		if n.worker == nil {
			continue
		}
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			for _, ds := range w.datasets {
				lsp := w.rec.Begin("registry.load", "setup "+n.name, sp.ID(), "")
				lsp.Set("dataset", ds)
				_, errs[i] = n.worker.Datasets().Get(ctx, ds)
				lsp.End()
				if errs[i] != nil {
					return
				}
			}
		}(i, n)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return errors.Join(err, w.topo.stop())
	}
	c := newClient(nil)
	defer c.close()
	for _, ds := range w.datasets {
		var info server.DatasetInfoResponse
		body := []byte(fmt.Sprintf(`{"dataset":%q}`, ds))
		if _, err := c.Do(ctx, "POST", w.topo.Front.URL+"/v1/datasetinfo", "datasetinfo", body, &info); err != nil {
			return errors.Join(err, w.topo.stop())
		}
		if ds == "stackoverflow" {
			w.env.SOMin, w.env.SOMax = info.MinTS, info.MaxTS
		}
	}
	w.setups = append(w.setups, time.Since(start).Seconds())
	sp.End()
	return nil
}

// phaseRun locates one phase's outcomes in readRun.sent.
type phaseRun struct {
	lo, hi int
	start  time.Time
	// roundEnds holds when each complete round ended.
	roundEnds []time.Time
}

// phase replays rounds from first until rounds rounds completed
// (rounds < 0: no limit) or, checked before each request, until d has
// passed (d = 0: no limit).
func (w *readRun) phase(ctx context.Context, first, rounds int, d time.Duration) phaseRun {
	p := phaseRun{lo: len(w.sent), start: time.Now()}
	for r := first; rounds < 0 || len(p.roundEnds) < rounds; r++ {
		for _, q := range Round(w.opts.seed, w.env, r, !w.coord) {
			if d > 0 && time.Since(p.start) > d {
				p.hi = len(w.sent)
				return p
			}
			w.sent = append(w.sent, w.send(ctx, q, r))
		}
		p.roundEnds = append(p.roundEnds, time.Now())
	}
	p.hi = len(w.sent)
	return p
}

// complete is the phase's outcomes in complete rounds (every outcome
// when not one round completed).
func (w *readRun) complete(p phaseRun) []readOutcome {
	outs := w.sent[p.lo:p.hi]
	if len(p.roundEnds) == 0 {
		return outs
	}
	last := outs[0].s.Block + len(p.roundEnds)
	i := sort.Search(len(outs), func(i int) bool { return outs[i].s.Block >= last })
	return outs[:i]
}

// ops is the median over the phase's complete rounds of each round's
// requests per second: every round sends the same templates, and the
// median keeps a burst of interference in one round from moving the
// figure. With no complete round it is the phase's plain rate.
func (w *readRun) ops(p phaseRun) float64 {
	outs := w.sent[p.lo:p.hi]
	if len(p.roundEnds) == 0 {
		if len(outs) == 0 {
			return 0
		}
		last := outs[len(outs)-1].s
		return float64(len(outs)) / last.Start.Add(last.Dur).Sub(p.start).Seconds()
	}
	var rates []float64
	prev, i := p.start, 0
	for r, end := range p.roundEnds {
		n := 0
		for ; i < len(outs) && outs[i].s.Block == outs[0].s.Block+r; i++ {
			n++
		}
		rates = append(rates, float64(n)/end.Sub(prev).Seconds())
		prev = end
	}
	return median(rates)
}

func (w *readRun) send(ctx context.Context, q Request, round int) readOutcome {
	o := readOutcome{q: q}
	var out any = &o.count
	if q.Class == "enum" {
		out = &o.enum
	}
	o.s, o.err = w.client.Do(ctx, "POST", w.topo.Front.URL+q.Path(), q.Class, q.Body(w.token), out)
	o.s.Template, o.s.Block = q.Template, round
	o.s.WallMS = o.count.WallMS + o.enum.WallMS
	return o
}

// check verifies every answer against its reference; a loud answer
// (partial, degraded, truncated) or a wrong one marks its sample
// failed. It returns how many answers were wrong.
func (w *readRun) check() (int, error) {
	wrong := 0
	for i := range w.sent {
		o := &w.sent[i]
		if o.err != nil {
			continue
		}
		bad, err := w.verdict(o)
		if err != nil {
			return 0, err
		}
		if bad != "" {
			o.s.Failed = true
			if bad != "loud" {
				wrong++
				fmt.Printf("WRONG %s: %s\n", o.q.Template, bad)
			}
		}
	}
	w.refs.drop()
	return wrong, nil
}

// verdict is "" for a correct exact answer, "loud" for an honest
// partial/degraded/truncated one, else what is wrong.
func (w *readRun) verdict(o *readOutcome) (string, error) {
	q := o.q
	switch q.Class {
	case "enum":
		e := o.enum
		if e.Truncated || e.Partial != nil {
			return "loud", nil
		}
		lo := min(q.Offset, int64(len(w.refEnum)))
		hi := min(q.Offset+enumLimit, int64(len(w.refEnum)))
		want := w.refEnum[lo:hi]
		if !slices.EqualFunc(e.Matches, want, slices.Equal[[]int32]) {
			return fmt.Sprintf("page at offset %d differs from the reference slice", q.Offset), nil
		}
	case "batch":
		c := o.count
		if !c.Exact || c.Truncated || c.Degraded || c.Partial != nil {
			return "loud", nil
		}
		if len(c.PerMotif) != len(q.Motifs) {
			return fmt.Sprintf("%d per-motif entries, want %d", len(c.PerMotif), len(q.Motifs)), nil
		}
		for i, m := range q.Motifs {
			ref, err := w.refs.Count(q.Dataset, m, q.Delta, q.Window)
			if err != nil {
				return "", err
			}
			if e := c.PerMotif[i]; e.Motif != m || e.Count != ref {
				return fmt.Sprintf("%s = %d, reference %d", e.Motif, e.Count, ref), nil
			}
		}
	default:
		c := o.count
		if !c.Exact || c.Truncated || c.Degraded || c.Partial != nil {
			return "loud", nil
		}
		ref, err := w.refs.Count(q.Dataset, q.Motif, q.Delta, q.Window)
		if err != nil {
			return "", err
		}
		if c.Count != float64(ref) {
			return fmt.Sprintf("count %v, reference %d", c.Count, ref), nil
		}
	}
	return "", nil
}

// traced repeats the timed phase with spans on, then probes the engine
// layers directly, and sets every per-layer metric.
func (w *readRun) traced(ctx context.Context, res *Result, untracedOps float64) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.rec.SetOn(true)
	p := w.phase(ctx, 1, -1, w.opts.duration())
	runtime.ReadMemStats(&after)
	tracedOps := w.ops(p)
	if err := w.probe(ctx, res); err != nil {
		return err
	}
	if err := w.probeStorage(ctx); err != nil {
		return err
	}
	w.rec.SetOn(false)

	samples := samplesOf(w.sent[p.lo:p.hi])
	setRuntime(res, before, after, len(samples))
	res.set("obs.trace_overhead", untracedOps/tracedOps)
	setFront(res, samples)
	res.set("registry.loads", float64(w.topo.counter("registry.load")))
	res.set("registry.hits", float64(w.topo.counter("registry.hit")))
	setSpanMeans(res, w.rec)

	var calls, self, imbalance []float64
	for _, cs := range w.rec.spansNamed("client.count", "client.batch", "client.enum") {
		kids := w.rec.Children(cs.ID, "gather.shard_call")
		if len(kids) == 0 {
			continue
		}
		var slowest, sum float64
		for _, k := range kids {
			d := ms(k.End.Sub(k.Start))
			calls = append(calls, d)
			slowest = max(slowest, d)
			sum += d
		}
		self = append(self, ms(cs.End.Sub(cs.Start))-slowest)
		if len(kids) > 1 && cs.Name != "client.enum" {
			imbalance = append(imbalance, slowest/(sum/float64(len(kids))))
		}
	}
	// No WAL, stream or follower serves this workload.
	for _, name := range []string{"edgelog.fsyncs", "stream.integrations",
		"replica.lag_p50_ms", "replica.lag_tail_ms", "replica.applied_records"} {
		res.set(name, 0)
	}
	res.set("gather.shard_calls", float64(len(calls)))
	res.set("gather.shard_call_ms", median(calls))
	res.set("gather.self_ms", median(self))
	res.set("shard.imbalance", mean(imbalance))
	return writeTrace(w.rec, w.opts)
}

// probe replays round 1's templates directly into the engines, on the
// graphs the servers hold, with the servers' per-request parallelism,
// and sets the probes' expansion counts.
func (w *readRun) probe(ctx context.Context, res *Result) error {
	n := w.topo.Front
	workers := 0
	if w.coord {
		n, workers = w.topo.Nodes[1], 1
	}
	var nodes, shared, batchNodes int64
	for _, q := range Round(w.opts.seed, w.env, 1, !w.coord) {
		g, err := n.worker.Datasets().Get(ctx, q.Dataset)
		if err != nil {
			return err
		}
		delta := mint.Timestamp(q.Delta)
		var roots *mint.RootWindow
		if q.Window != nil {
			roots = &mint.RootWindow{Start: mint.Timestamp(q.Window.StartTS), End: mint.Timestamp(q.Window.EndTS)}
		}
		switch q.Class {
		case "count":
			m, err := mint.MotifByName(q.Motif, delta)
			if err != nil {
				return err
			}
			sp := w.rec.Begin("mackey.count", "probe", 0, "")
			r, err := mackey.MineParallelCtx(ctx, g, m, mackey.Options{Workers: workers, Roots: rootRange(g, q.Window)}, mint.Budget{})
			sp.End()
			if err != nil {
				return err
			}
			nodes += r.Stats.NodesExpanded
		case "batch":
			motifs := mint.EvaluationMotifs(delta)
			sp := w.rec.Begin("comine.batch", "probe", 0, "")
			r, err := mint.CountManyOpts(ctx, g, motifs, mint.BatchOptions{Workers: workers, Roots: roots}, mint.Budget{})
			sp.End()
			if err != nil {
				return err
			}
			shared += r.SharedExpansions
			batchNodes += r.Stats.NodesExpanded
		case "enum":
			m, err := mint.MotifByName(q.Motif, delta)
			if err != nil {
				return err
			}
			sp := w.rec.Begin("enum.mine", "probe", 0, "")
			mint.EnumerateChaosRootsCtx(ctx, g, m, mint.Budget{MaxMatches: q.Offset + enumLimit}, nil, nil, func([]int32) {})
			sp.End()
		}
	}
	res.set("mackey.nodes_expanded", float64(nodes))
	res.set("comine.shared_ratio", ratio(shared, batchNodes))
	return nil
}

// probeStorage runs the storage-layer probe on the ingest writer's
// stream and seeded batches, so the storage layers' cost is on record
// beside workloads that do not write (the prediction for them is no
// change).
func (w *readRun) probeStorage(ctx context.Context) error {
	stream, err := ingestStream(nil)
	if err != nil {
		return err
	}
	syncEvery, err := edgelog.ParseSyncPolicy("always")
	if err != nil {
		return err
	}
	pos := firstWindowEnd(stream)
	var batches []batchRange
	for _, n := range BatchSizes(w.opts.seed, probeBatches) {
		batches = append(batches, batchRange{pos, pos + n})
		pos += n
	}
	dir := filepath.Join(w.opts.dir, fmt.Sprintf("probe-%d", os.Getpid()))
	return probeStorage(ctx, w.rec, dir, stream, firstWindowEnd(stream), batches, syncEvery)
}

func samplesOf(outs []readOutcome) []Sample {
	s := make([]Sample, len(outs))
	for i, o := range outs {
		s[i] = o.s
	}
	return s
}
