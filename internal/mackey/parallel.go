package mackey

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mint/internal/faultinject"
	"mint/internal/runctl"
	"mint/internal/temporal"
)

// MineParallel is the task-centric multi-threaded CPU baseline of the
// paper (§VII-D: "we convert their code into a task-centric multi-threaded
// implementation ... using work stealing OpenMP threads"). Root tasks —
// complete search trees, which are mutually independent (§IV-C) — are
// distributed to workers through a shared atomic cursor in small chunks,
// the Go analog of OpenMP dynamic/work-stealing scheduling. Each worker
// owns private node mappings; only the optional memo table is shared.
//
// A panicking worker aborts the run and surfaces as the error of
// MineParallelCtx; this compatibility wrapper re-panics with it, which is
// still strictly better than the unrecovered-goroutine process kill the
// panic would otherwise cause.
func MineParallel(g *temporal.Graph, m *temporal.Motif, opts Options) Result {
	res, err := MineParallelCtx(context.Background(), g, m, opts, runctl.Budget{})
	if err != nil {
		panic(err)
	}
	return res
}

// MineParallelCtx is MineParallel bounded by a context and a budget.
// Cancellation is cooperative: workers poll a shared atomic flag every
// runctl.CheckInterval tree expansions and unwind promptly. A truncated
// run returns Truncated=true with the exact partial count and stats
// merged across workers. A worker panic converts into a *runctl.PanicError
// (carrying the offending root edge ID) instead of killing the process;
// the remaining workers are stopped and their partial stats returned.
func MineParallelCtx(ctx context.Context, g *temporal.Graph, m *temporal.Motif, opts Options, b runctl.Budget) (Result, error) {
	if opts.Ctl == nil {
		// Always run parallel workers under a controller so that a panic
		// in one worker stops the others promptly.
		opts.Ctl = runctl.New(ctx, b)
	}
	lo, hi := opts.rootSpan(g.NumEdges())

	// Time-partitioned dynamic scheduling: the root space is pre-split
	// into contiguous, timestamp-aligned edge ranges, and workers steal
	// whole ranges through a shared atomic cursor. Ranges are small enough
	// to balance the heavy-tailed tree sizes (like the previous flat
	// chunking) but, because each range covers a half-open time interval,
	// the roots a worker mines consecutively stay temporally adjacent —
	// which is exactly what keeps its worker-local window cache advancing
	// monotonically instead of thrashing.
	plan := &chunkPlan{bounds: partitionRootsRange(g, max(1, opts.workerCount()), temporal.EdgeID(lo), temporal.EdgeID(hi))}
	plan.last.Store(int64(len(plan.bounds) - 2))
	return mineChunks(g, m, opts, plan)
}

// workerCount resolves Options.Workers (< 1 means runtime.NumCPU()).
func (o *Options) workerCount() int {
	if o.Workers < 1 {
		return runtime.NumCPU()
	}
	return o.Workers
}

// chunkPlan is the work list of one mineChunks run: the chunks
// next..last of bounds (chunk k spans bounds[k]..bounds[k+1]).
type chunkPlan struct {
	bounds []temporal.EdgeID
	// next is the shared pull cursor.
	next atomic.Int64
	// last is the final chunk of the run. Lowering it mid-run stops the
	// pulls beyond it and abandons, between two roots, any chunk past it
	// already in flight.
	last atomic.Int64
	// done, when non-nil, receives the match count of every chunk mined
	// to completion, from the worker that mined it.
	done func(k, matches int64)
}

// mineChunks mines plan's chunks on opts.Workers workers under opts.Ctl
// (which must be set) and merges their stats. It is the work-stealing
// loop behind MineParallelCtx and ChunkIndex.Seek.
func mineChunks(g *temporal.Graph, m *temporal.Motif, opts Options, plan *chunkPlan) (Result, error) {
	ctl := opts.Ctl
	bounds := plan.bounds
	workers := min(opts.workerCount(), max(1, int(plan.last.Load()-plan.next.Load()+1)))

	// Per-worker observability tallies, written only by the owning worker
	// goroutine and read after wg.Wait(). Timing is collected only when an
	// observer is attached so the uninstrumented run stays byte-identical.
	observed := opts.Obs != nil || opts.Trace != nil
	var runStart time.Time
	if observed {
		runStart = time.Now()
	}

	faults := ctl.FaultPlan()
	perWorker := make([]Stats, workers)
	perChunks := make([]int64, workers)
	perBusy := make([]time.Duration, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var busyStart time.Time
			if observed {
				busyStart = time.Now()
			}
			w := acquireWorker(g, m, opts)
			cur := int64(temporal.InvalidEdge)
			panicked := false
			defer func() {
				if r := recover(); r != nil {
					if inj, ok := r.(*faultinject.Injected); ok {
						// Injected chaos panic: the plain parallel miner has
						// no retry tier, so the run truncates — explicitly
						// attributed, never silently short-counted.
						errs[wi] = inj
						ctl.Stop(runctl.FaultInjected)
					} else {
						errs[wi] = &runctl.PanicError{Worker: wi, Root: cur, Value: r}
						ctl.Stop(runctl.Failed)
					}
					panicked = true
					perWorker[wi] = w.stats
				}
				if !panicked {
					// A panicked worker's bindings are mid-tree; abandon it
					// to the GC rather than pooling corrupt state.
					w.release()
				}
				if observed {
					perBusy[wi] = time.Since(busyStart)
				}
			}()
		pull:
			for {
				k := plan.next.Add(1) - 1
				if k > plan.last.Load() {
					break
				}
				if faults != nil {
					// Chaos site "mackey.chunk": Error/Drop stop the run as
					// FaultInjected; a Panic unwinds into the recover above.
					// (The supervised variant retries these instead.)
					if err := faults.Fire("mackey.chunk", k, 0); err != nil {
						errs[wi] = err
						ctl.Stop(runctl.FaultInjected)
						break pull
					}
				}
				perChunks[wi]++
				before := w.stats.Matches
				for root := bounds[k]; root < bounds[k+1]; root++ {
					if w.stopped {
						break pull
					}
					if k > plan.last.Load() {
						continue pull // abandoned: the run no longer needs it
					}
					cur = int64(root)
					w.mineRoot(root)
				}
				if w.stopped {
					break // the last tree may have been cut short
				}
				if plan.done != nil {
					plan.done(k, w.stats.Matches-before)
				}
			}
			w.checkpoint() // flush the tail of this worker's progress
			w.foldCacheStats()
			perWorker[wi] = w.stats
		}(wi)
	}
	wg.Wait()

	var total Stats
	for _, s := range perWorker {
		total.Add(s)
	}
	res := Result{Matches: total.Matches, Stats: total}
	if ctl.Stopped() {
		res.Truncated = true
		res.StopReason = ctl.Reason()
	}

	// Fold each worker's counters into its own registry shard, plus the
	// per-worker utilization distribution — a flat busy-time histogram
	// with an idle tail is the work-stealing balance signal.
	if opts.Obs != nil {
		busyHist := opts.Obs.Histogram("mackey.worker_busy_ns")
		nodesHist := opts.Obs.Histogram("mackey.worker_nodes")
		for wi := range perWorker {
			publishStats(opts.Obs, wi, perWorker[wi])
			if perChunks[wi] > 0 {
				opts.Obs.Counter("mackey.parallel.chunks").AddShard(wi, perChunks[wi])
				opts.Obs.Counter("mackey.parallel.steals").AddShard(wi, perChunks[wi]-1)
			}
			busyHist.Observe(perBusy[wi].Nanoseconds())
			nodesHist.Observe(perWorker[wi].NodesExpanded)
		}
		if res.Truncated {
			opts.Obs.Counter("mackey.truncated_runs").Add(1)
		}
		publishController(opts.Obs, ctl)
	}
	if opts.Trace != nil {
		traceID := ctl.TraceID()
		for wi := range perBusy {
			opts.Trace.EmitTagged("mackey.worker", traceID, int32(wi), runStart, perBusy[wi])
		}
		opts.Trace.EmitTagged("mackey.mine_parallel", traceID, -1, runStart, time.Since(runStart))
	}

	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// partitionRoots splits the root space [0, NumEdges) into contiguous
// chunk boundaries: chunk k is bounds[k]..bounds[k+1]. Target chunk size
// matches the previous flat scheduling (n / (workers·16), clamped to
// [1, 256] roots), but every boundary is snapped forward past timestamp
// ties so each chunk covers a half-open time interval — a time partition
// of the edge list, not just an index partition.
func partitionRoots(g *temporal.Graph, workers int) []temporal.EdgeID {
	return partitionRootsRange(g, workers, 0, temporal.EdgeID(g.NumEdges()))
}

// partitionRootsRange is partitionRoots restricted to the half-open root
// index range [lo, hi) — the same chunk sizing and tie-snapping, applied
// within the range. The sharding layer hands each worker process one
// such range; this keeps the in-process scheduler identical inside it.
func partitionRootsRange(g *temporal.Graph, workers int, lo, hi temporal.EdgeID) []temporal.EdgeID {
	n := int(hi - lo)
	if n < 0 {
		n = 0
	}
	chunk := n / (workers * 16)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 256 {
		chunk = 256
	}
	bounds := make([]temporal.EdgeID, 1, n/chunk+2)
	bounds[0] = lo
	for b := int(lo) + chunk; b < int(hi); {
		for b < int(hi) && g.Edges[b].Time == g.Edges[b-1].Time {
			b++ // never split a timestamp tie across chunks
		}
		if b >= int(hi) {
			break
		}
		bounds = append(bounds, temporal.EdgeID(b))
		b += chunk
	}
	return append(bounds, hi)
}

// PartitionRoots exposes the time-partitioned chunk boundaries over the
// half-open root index range [lo, hi) to sibling engines (the co-mining
// executor in internal/comine schedules its groups over the same
// timestamp-aligned chunks, so its per-worker window caches advance
// monotonically exactly like this package's workers do). Chunk k spans
// bounds[k]..bounds[k+1].
func PartitionRoots(g *temporal.Graph, workers int, lo, hi temporal.EdgeID) []temporal.EdgeID {
	return partitionRootsRange(g, workers, lo, hi)
}

// MineMemo runs the sequential reference miner with software search index
// memoization enabled — the "Mackey et al. CPU w/ Memoization" baseline of
// Fig 10/11. The memo table is allocated internally.
func MineMemo(g *temporal.Graph, m *temporal.Motif, opts Options) Result {
	opts.Memo = NewMemoTable(g.NumNodes())
	return Mine(g, m, opts)
}

// MineParallelMemo is MineParallel with a shared memo table.
func MineParallelMemo(g *temporal.Graph, m *temporal.Motif, opts Options) Result {
	opts.Memo = NewMemoTable(g.NumNodes())
	return MineParallel(g, m, opts)
}

// MineParallelMemoCtx is MineParallelCtx with a shared memo table.
func MineParallelMemoCtx(ctx context.Context, g *temporal.Graph, m *temporal.Motif, opts Options, b runctl.Budget) (Result, error) {
	opts.Memo = NewMemoTable(g.NumNodes())
	return MineParallelCtx(ctx, g, m, opts, b)
}
