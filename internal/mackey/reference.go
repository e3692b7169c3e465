package mackey

import (
	"context"
	"math"
	"math/bits"
	"time"

	"mint/internal/faultinject"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/temporal"
)

// Options configures a mining run.
type Options struct {
	// Probe receives fine-grained events; may be nil.
	Probe Probe

	// Memo enables software search index memoization using the given
	// table (shared across workers in parallel runs); nil disables it.
	Memo *MemoTable

	// Workers sets the degree of parallelism for the parallel miners;
	// values < 1 mean runtime.NumCPU().
	Workers int

	// Ctl carries the run's cancellation and budget state; nil means the
	// run is uncancellable and unbounded (the historical behavior).
	// Workers poll it cooperatively every runctl.CheckInterval tree
	// expansions, so the hot path stays within its regression budget.
	Ctl *runctl.Controller

	// Obs, when non-nil, receives the run's counters (folded once per
	// worker at run end, sharded by worker index — see obs.go for the
	// metric names). The mining hot path never touches it.
	Obs *obs.Registry

	// Trace, when non-nil, receives coarse spans (one per run plus one
	// per parallel worker) in Chrome trace_event form.
	Trace *obs.Tracer

	// Baseline runs the pre-overhaul hot path: no worker pooling, no
	// window-cached searches, closure-based candidate scans. It exists as
	// the A/B reference for `make bench-compare` and as an extra engine in
	// the differential harness; results are identical either way.
	Baseline bool

	// Roots, when non-nil, restricts the run to root edges in the
	// half-open index range [Roots.Lo, Roots.Hi). Motif instances are
	// counted iff their root (earliest) edge lies in the range; later
	// motif edges may come from anywhere in the graph, so restricted runs
	// over disjoint ranges sum exactly to the unrestricted count. This is
	// the engine-level hook behind the δ-aware shard partition.
	Roots *RootRange
}

// RootRange is a half-open range of root edge indices, [Lo, Hi).
type RootRange struct {
	Lo, Hi temporal.EdgeID
}

// rootSpan resolves the effective root index range for a graph with n
// edges: the whole space when Roots is nil, the clamped range otherwise.
func (o *Options) rootSpan(n int) (lo, hi int) {
	if o.Roots == nil {
		return 0, n
	}
	lo, hi = int(o.Roots.Lo), int(o.Roots.Hi)
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Result is the outcome of a mining run.
type Result struct {
	Matches int64
	Stats   Stats

	// Truncated reports that the run stopped before exhausting the search
	// space (cancellation, deadline, or budget). Matches and Stats then
	// hold the exact partial work done up to the stop point — a lower
	// bound on the full count, not garbage.
	Truncated bool
	// StopReason says why a truncated run stopped (runctl.NotStopped
	// when Truncated is false).
	StopReason runctl.Reason
}

// Mine counts δ-temporal motif instances of m in g using the recursive
// reference formulation of Mackey et al.'s chronological edge-driven DFS.
func Mine(g *temporal.Graph, m *temporal.Motif, opts Options) Result {
	var start time.Time
	if opts.Trace != nil {
		start = time.Now()
	}
	w := acquireWorker(g, m, opts)
	lo, hi := opts.rootSpan(g.NumEdges())
	if plan := opts.Ctl.FaultPlan(); plan != nil {
		for root := lo; root < hi; root++ {
			if w.stopped {
				break
			}
			w.mineRootChaos(plan, temporal.EdgeID(root))
		}
	} else {
		for root := lo; root < hi; root++ {
			if w.stopped {
				break
			}
			w.mineRoot(temporal.EdgeID(root))
		}
	}
	res := w.finish()
	w.release()
	publishRun(opts, 0, res, "mackey.mine", start)
	return res
}

// MineCtx is Mine bounded by a context and a resource budget. A truncated
// run returns the exact partial count and stats accumulated so far; at a
// fixed node budget the sequential truncation point — and therefore the
// partial count — is deterministic across runs.
func MineCtx(ctx context.Context, g *temporal.Graph, m *temporal.Motif, opts Options, b runctl.Budget) Result {
	if opts.Ctl == nil {
		opts.Ctl = controllerFor(ctx, b)
	}
	return Mine(g, m, opts)
}

// controllerFor builds a controller for (ctx, b), or nil when neither can
// ever fire — keeping the uncancellable fast path allocation-free.
func controllerFor(ctx context.Context, b runctl.Budget) *runctl.Controller {
	if (ctx == nil || ctx.Done() == nil) && b.Unlimited() {
		return nil
	}
	return runctl.New(ctx, b)
}

// worker holds the per-thread mining state: the node mappings (m2gMap and
// g2mMap from Algorithm 1) and instrumentation counters. A worker expands
// complete search trees one root at a time; distinct workers never share
// mutable state except the (atomically updated) memo table.
type worker struct {
	g    *temporal.Graph
	m    *temporal.Motif
	opts Options

	m2g []temporal.NodeID // motif node -> graph node, -1 if unmapped
	g2m []temporal.NodeID // graph node -> motif node, -1 if unmapped
	seq []temporal.EdgeID // matched graph edges in motif order (eStack)
	// matchBuf is the reused slice handed to Probe.Match ("copy to
	// retain"): one per worker, so enumeration allocates nothing per match.
	matchBuf []int32

	// wc memoizes per-node phase-1 filter bounds across expansions and
	// root tasks; worker-owned, so the parallel miners stay race-free.
	wc temporal.WindowCache
	// legacyScan routes candidate scans through the closure-based
	// scanList: set for Baseline runs (the A/B reference) and for memoized
	// runs (the memo table is its own, separately evaluated optimization).
	legacyScan bool

	rootEG temporal.EdgeID
	stats  Stats

	// Cooperative cancellation state: sinceCheck counts tree expansions
	// since the last shared-state poll; stopped latches a stop request so
	// the recursion unwinds with one local branch per frame.
	sinceCheck     int32
	stopped        bool
	flushedMatches int64
}

// checkpoint flushes the worker's progress into the shared controller and
// latches any stop request. Called every runctl.CheckInterval expansions
// (and on each match under a match budget), so its cost is amortized away.
func (w *worker) checkpoint() {
	nodes := int64(w.sinceCheck)
	w.sinceCheck = 0
	w.stats.NodesExpanded += nodes
	if w.opts.Ctl == nil {
		return
	}
	dm := w.stats.Matches - w.flushedMatches
	w.flushedMatches = w.stats.Matches
	if w.opts.Ctl.Checkpoint(nodes, dm) {
		w.stopped = true
	}
}

// finish flushes any unreported progress and assembles the worker's
// Result. Truncation reflects whether a stop was observed during mining —
// a stop that fires only at this final flush (e.g. a budget reached on the
// very last expansion) does not mark an actually-complete run truncated.
func (w *worker) finish() Result {
	truncated := w.stopped
	w.checkpoint()
	w.foldCacheStats()
	w.stopped = truncated
	res := Result{Matches: w.stats.Matches, Stats: w.stats, Truncated: truncated}
	if truncated {
		res.StopReason = w.opts.Ctl.Reason()
	}
	return res
}

// foldCacheStats snapshots the window cache's counters into Stats so one
// Result (and the obs fold) carries them; a no-op when the cache is off.
func (w *worker) foldCacheStats() {
	if w.legacyScan {
		return
	}
	w.stats.SearchCacheHits = w.wc.Hits()
	w.stats.SearchCacheMisses = w.wc.Misses()
}

// mineRootChaos is mineRoot under the run's fault plan (site
// "mackey.root", keyed by root edge ID). The sequential miner has no
// retry tier, so any injected fault — panic, error, or drop — stops the
// run with Reason FaultInjected: the partial count is explicitly
// Truncated, never silently short. Non-injected panics propagate.
func (w *worker) mineRootChaos(plan *faultinject.Plan, root temporal.EdgeID) {
	defer func() {
		if r := recover(); r != nil {
			if !faultinject.IsInjected(r) {
				panic(r)
			}
			w.opts.Ctl.Stop(runctl.FaultInjected)
			w.stopped = true
		}
	}()
	if err := plan.Fire("mackey.root", int64(root), 0); err != nil {
		w.opts.Ctl.Stop(runctl.FaultInjected)
		w.stopped = true
		return
	}
	w.mineRoot(root)
}

// mineRoot expands the complete search tree rooted at matching motif edge
// 0 to graph edge root. Root tasks are exactly the paper's root
// book-keeping tasks (§IV-A).
func (w *worker) mineRoot(root temporal.EdgeID) {
	e := w.g.Edges[root]
	if e.Src == e.Dst {
		return // motif edges are loop-free; a self-loop can never map
	}
	w.stats.RootTasks++
	w.rootEG = root
	me := w.m.Edges[0]
	w.bind(me.Src, e.Src)
	w.bind(me.Dst, e.Dst)
	w.seq = append(w.seq, root)
	w.stats.BookkeepTasks++
	w.extend(1, root, e.Time+w.m.Delta)
	w.seq = w.seq[:0]
	w.unbind(me.Dst, e.Dst)
	w.unbind(me.Src, e.Src)
	w.stats.BacktrackTasks++
}

func (w *worker) bind(mu temporal.NodeID, gu temporal.NodeID) {
	w.m2g[mu] = gu
	w.g2m[gu] = mu
}

func (w *worker) unbind(mu temporal.NodeID, gu temporal.NodeID) {
	w.m2g[mu] = temporal.InvalidNode
	w.g2m[gu] = temporal.InvalidNode
}

// extend matches motif edge depth against graph edges later than last and
// no later than deadline, recursing on every success. It is the recursive
// equivalent of the paper's FindNextMatchingEdge + UpdateDataStructures +
// backtracking loop.
func (w *worker) extend(depth int, last temporal.EdgeID, deadline temporal.Timestamp) {
	if w.stopped {
		return
	}
	w.sinceCheck++
	if w.sinceCheck >= runctl.CheckInterval {
		w.checkpoint()
		if w.stopped {
			return
		}
	}
	if depth == w.m.NumEdges() {
		w.stats.Matches++
		if w.opts.Probe != nil {
			w.opts.Probe.Match(asInt32(&w.matchBuf, w.seq))
		}
		if w.opts.Ctl.MatchBudgeted() {
			// Eager poll under a match budget: the sequential miner then
			// stops after exactly MaxMatches matches.
			w.checkpoint()
		}
		return
	}
	w.stats.SearchTasks++
	me := w.m.Edges[depth]
	uG := w.m2g[me.Src]
	vG := w.m2g[me.Dst]

	if uG == temporal.InvalidNode && vG == temporal.InvalidNode {
		// Neither endpoint mapped (Algorithm 1 line 37): the search space
		// is the whole remaining edge list. Only reachable for motifs whose
		// edge sequence is not connected-prefix; kept for full generality.
		for id := int(last) + 1; id < w.g.NumEdges(); id++ {
			e := w.g.Edges[id]
			if e.Time > deadline {
				w.stats.TimePrunedScans++
				break
			}
			w.stats.CandidateEdges++
			w.stats.Branches++
			if e.Src == e.Dst ||
				w.g2m[e.Src] != temporal.InvalidNode ||
				w.g2m[e.Dst] != temporal.InvalidNode {
				continue
			}
			w.bind(me.Src, e.Src)
			w.bind(me.Dst, e.Dst)
			w.accept(depth, temporal.EdgeID(id), deadline)
			w.unbind(me.Dst, e.Dst)
			w.unbind(me.Src, e.Src)
		}
	} else if w.legacyScan {
		w.extendLegacy(me, uG, vG, depth, last, deadline)
	} else {
		w.extendFast(me, uG, vG, depth, last, deadline)
	}
	w.stats.BacktrackTasks++
}

// extendLegacy dispatches the three neighborhood shapes through the
// closure-based scanList — the pre-overhaul path, kept as the Baseline
// A/B reference and as the host of the memo-table logic.
func (w *worker) extendLegacy(me temporal.MotifEdge, uG, vG temporal.NodeID,
	depth int, last temporal.EdgeID, deadline temporal.Timestamp) {

	switch {
	case uG != temporal.InvalidNode && vG != temporal.InvalidNode:
		// Both endpoints mapped (Algorithm 1 line 31): scan the smaller of
		// Nout(uG) and Nin(vG), matching the other endpoint exactly.
		outList := w.g.OutEdges(uG)
		inList := w.g.InEdges(vG)
		if len(outList) <= len(inList) {
			w.scanList(outList, true, uG, depth, last, deadline, func(e temporal.Edge) bool { return e.Dst == vG }, nil)
		} else {
			w.scanList(inList, false, vG, depth, last, deadline, func(e temporal.Edge) bool { return e.Src == uG }, nil)
		}

	case uG != temporal.InvalidNode:
		// Source mapped (line 33): scan Nout(uG), destination must be free.
		w.scanList(w.g.OutEdges(uG), true, uG, depth, last, deadline,
			func(e temporal.Edge) bool { return w.g2m[e.Dst] == temporal.InvalidNode },
			func(e temporal.Edge, bind bool) {
				if bind {
					w.bind(me.Dst, e.Dst)
				} else {
					w.unbind(me.Dst, e.Dst)
				}
			})

	case vG != temporal.InvalidNode:
		// Destination mapped (line 35): scan Nin(vG), source must be free.
		w.scanList(w.g.InEdges(vG), false, vG, depth, last, deadline,
			func(e temporal.Edge) bool { return w.g2m[e.Src] == temporal.InvalidNode },
			func(e temporal.Edge, bind bool) {
				if bind {
					w.bind(me.Src, e.Src)
				} else {
					w.unbind(me.Src, e.Src)
				}
			})
	}
}

// extendFast is extendLegacy with the dispatch devirtualized: the
// structural predicate and endpoint rebinding are inlined into three
// specialized candidate loops (no per-candidate closure calls), and the
// phase-1 filter origin comes from the worker's window cache instead of a
// fresh binary search. Same answers, same Stats accounting.
func (w *worker) extendFast(me temporal.MotifEdge, uG, vG temporal.NodeID,
	depth int, last temporal.EdgeID, deadline temporal.Timestamp) {

	g := w.g
	switch {
	case uG != temporal.InvalidNode && vG != temporal.InvalidNode:
		outList := g.OutEdges(uG)
		inList := g.InEdges(vG)
		if len(outList) <= len(inList) {
			list := outList
			start := w.scanStart(list, true, uG, last)
			i := start
			for ; i < len(list); i++ {
				id := list[i]
				e := g.Edges[id]
				if e.Time > deadline {
					w.stats.TimePrunedScans++
					break
				}
				if e.Dst != vG {
					continue
				}
				w.accept(depth, id, deadline)
			}
			w.chargeScan(i - start)
		} else {
			list := inList
			start := w.scanStart(list, false, vG, last)
			i := start
			for ; i < len(list); i++ {
				id := list[i]
				e := g.Edges[id]
				if e.Time > deadline {
					w.stats.TimePrunedScans++
					break
				}
				if e.Src != uG {
					continue
				}
				w.accept(depth, id, deadline)
			}
			w.chargeScan(i - start)
		}

	case uG != temporal.InvalidNode:
		list := g.OutEdges(uG)
		start := w.scanStart(list, true, uG, last)
		i := start
		for ; i < len(list); i++ {
			id := list[i]
			e := g.Edges[id]
			if e.Time > deadline {
				w.stats.TimePrunedScans++
				break
			}
			if w.g2m[e.Dst] != temporal.InvalidNode {
				continue
			}
			w.bind(me.Dst, e.Dst)
			w.accept(depth, id, deadline)
			w.unbind(me.Dst, e.Dst)
		}
		w.chargeScan(i - start)

	default: // vG mapped
		list := g.InEdges(vG)
		start := w.scanStart(list, false, vG, last)
		i := start
		for ; i < len(list); i++ {
			id := list[i]
			e := g.Edges[id]
			if e.Time > deadline {
				w.stats.TimePrunedScans++
				break
			}
			if w.g2m[e.Src] != temporal.InvalidNode {
				continue
			}
			w.bind(me.Src, e.Src)
			w.accept(depth, id, deadline)
			w.unbind(me.Src, e.Src)
		}
		w.chargeScan(i - start)
	}
}

// chargeScan charges n candidate-edge examinations in one shot. The fast
// loops count locally and batch the charge after the scan instead of
// incrementing two counters per candidate; the resulting Stats values are
// identical to the per-candidate accounting of the legacy path (a scan
// examines exactly the entries before the δ-deadline break).
func (w *worker) chargeScan(n int) {
	w.stats.CandidateEdges += int64(n)
	w.stats.Branches += int64(n)
}

// scanStart computes the phase-1 filter origin for a neighborhood scan via
// the window cache and charges the same accounting scanList does, so a
// Baseline run and an optimized run report identical Stats.
func (w *worker) scanStart(list []temporal.EdgeID, out bool, node temporal.NodeID, last temporal.EdgeID) int {
	start := w.wc.SearchAfter(list, out, node, last)
	w.stats.BinarySearches++
	if n := len(list); n > 0 {
		w.stats.Branches += int64(bits.Len(uint(n)))
	}
	w.stats.NeighborEntries += int64(len(list))
	w.stats.NeighborEntriesUseful += int64(len(list) - start)
	if w.opts.Probe != nil {
		w.opts.Probe.NeighborhoodAccess(int32(node), out, len(list), start, int32(w.rootEG))
	}
	return start
}

// scanList is the shared phase-1/phase-2 candidate loop over one node
// neighborhood. valid is the structural predicate; rebind (optional)
// binds/unbinds the newly mapped endpoint around each recursion.
func (w *worker) scanList(list []temporal.EdgeID, out bool, node temporal.NodeID,
	depth int, last temporal.EdgeID, deadline temporal.Timestamp,
	valid func(temporal.Edge) bool, rebind func(temporal.Edge, bool)) {

	// Phase-1 filter origin. Software uses binary search; with memoization
	// enabled the memoized index bounds the search range first and a
	// second binary search refines it (§VII-D).
	memoStart := 0
	if w.opts.Memo != nil {
		s, hit := w.opts.Memo.Lookup(out, node, w.rootEG)
		if hit {
			memoStart = s
			w.stats.MemoHits++
			w.stats.MemoSkippedEntries += int64(s)
		}
		w.stats.BinarySearches++ // the extra memo-index search
		// Keep the memo current for later trees: position of first entry
		// beyond this tree's root.
		rootPos := memoStart + temporal.SearchAfter(list[memoStart:], w.rootEG)
		w.opts.Memo.Update(out, node, w.rootEG, rootPos)
	}
	start := memoStart + temporal.SearchAfter(list[memoStart:], last)
	w.stats.BinarySearches++
	if n := len(list[memoStart:]); n > 0 {
		w.stats.Branches += int64(bits.Len(uint(n)))
	}

	// Fig 7 accounting: a streaming hardware fetch transfers the tail of
	// the neighborhood from the memo origin; only entries beyond the eG
	// filter are useful.
	w.stats.NeighborEntries += int64(len(list) - memoStart)
	w.stats.NeighborEntriesUseful += int64(len(list) - start)
	if w.opts.Probe != nil {
		w.opts.Probe.NeighborhoodAccess(int32(node), out, len(list), start, int32(w.rootEG))
	}

	for i := start; i < len(list); i++ {
		id := list[i]
		e := w.g.Edges[id]
		if e.Time > deadline {
			w.stats.TimePrunedScans++
			break
		}
		w.stats.CandidateEdges++
		w.stats.Branches++
		if !valid(e) {
			continue
		}
		if rebind != nil {
			rebind(e, true)
		}
		w.accept(depth, id, deadline)
		if rebind != nil {
			rebind(e, false)
		}
	}
}

// accept records a successful mapping of motif edge depth to graph edge id
// and recurses to the next motif edge.
func (w *worker) accept(depth int, id temporal.EdgeID, deadline temporal.Timestamp) {
	w.stats.BookkeepTasks++
	w.seq = append(w.seq, id)
	w.extend(depth+1, id, deadline)
	w.seq = w.seq[:len(w.seq)-1]
}

// maxTimestamp is the sentinel deadline before the first edge is matched.
const maxTimestamp = temporal.Timestamp(math.MaxInt64)

// asInt32 writes seq into *buf (grown once, then reused) as int32 IDs.
func asInt32(buf *[]int32, seq []temporal.EdgeID) []int32 {
	out := (*buf)[:0]
	for _, id := range seq {
		out = append(out, int32(id))
	}
	*buf = out
	return out
}
