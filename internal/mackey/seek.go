package mackey

import (
	"context"
	"sort"
	"sync"

	"mint/internal/runctl"
	"mint/internal/temporal"
)

// ChunkIndex makes deep enumeration pages seekable. Root tasks are
// independent search trees (§IV-C), so the matches of the deterministic
// chronological enumeration fall into one contiguous run per root, and
// therefore one run per time-aligned root chunk. The index records the
// exact match count of each chunk of one (graph, motif, δ); a page at
// offset k walks the counts to the chunk holding match k and enumerates
// from that chunk's first root, instead of re-mining every tree before
// it.
//
// Chunks are PartitionRoots(g, 1, 0, |E|): fixed by the graph alone,
// independent of any request's parallelism, and never splitting a
// timestamp tie — so a chunk boundary is also a valid root-window
// boundary and the walk order is unchanged. Counts are filled lazily,
// one chunk at a time, only where a seek needs them. Only complete,
// untruncated counts are ever stored: a short count would silently shift
// every later page.
//
// An index is valid only for the graph it was built from; it holds the
// chunk bounds, never the graph. All methods are safe for concurrent
// use; concurrent seeks that count the same chunk store the same value.
type ChunkIndex struct {
	bounds []temporal.EdgeID // chunk k is [bounds[k], bounds[k+1])

	mu     sync.Mutex
	counts []int64 // counts[k] for chunk k; -1 until counted
}

// NewChunkIndex builds an empty index over g's whole root space.
func NewChunkIndex(g *temporal.Graph) *ChunkIndex {
	bounds := PartitionRoots(g, 1, 0, temporal.EdgeID(g.NumEdges()))
	counts := make([]int64, len(bounds)-1)
	for k := range counts {
		counts[k] = -1
	}
	return &ChunkIndex{bounds: bounds, counts: counts}
}

// Bytes is the index's resident size, fixed at creation.
func (x *ChunkIndex) Bytes() int64 {
	return int64(len(x.bounds))*4 + int64(len(x.counts))*8 + 64
}

// Seek is where an enumeration page starts after a ChunkIndex seek.
type Seek struct {
	// Start is the first root the page's enumeration walks.
	Start temporal.EdgeID
	// Skip is how many of the matches rooted at Start and later still
	// precede the page.
	Skip int64
	// Counted is the number of chunks this seek counted and stored.
	Counted int
	// Result is the counting stage's outcome. Truncated means the seek
	// was cut short (budget, cancellation, injected fault): Start and
	// Skip are then meaningless and nothing was stored for the chunk in
	// flight.
	Result Result
}

// Seek finds the position of match offset (0-based) in the enumeration
// of roots [lo, hi). It mines the partial head chunk [lo, first chunk
// bound) directly, then walks the whole chunks inside the window until
// the running sum passes offset, counting the chunks not yet in the index
// on opts.Workers workers under opts.Ctl (nil: unbounded). Workers take
// chunks in order and drop theirs, between two root trees, as soon as
// the chunk holding match offset is known; a chunk past it that another
// worker finished first is exact and kept. Enumerating [Start, hi) and
// skipping Skip matches yields exactly the page the full walk from lo
// would.
func (x *ChunkIndex) Seek(g *temporal.Graph, m *temporal.Motif, opts Options, lo, hi temporal.EdgeID, offset int64) (Seek, error) {
	hi = min(hi, x.bounds[len(x.bounds)-1])
	lo = min(lo, hi)
	sk := Seek{Start: lo, Skip: offset}
	opts.Probe = nil
	if opts.Ctl == nil {
		opts.Ctl = runctl.New(context.Background(), runctl.Budget{})
	}
	c := sort.Search(len(x.bounds), func(k int) bool { return x.bounds[k] >= lo })
	if head := min(x.bounds[c], hi); lo < head && sk.Skip > 0 {
		plan := &chunkPlan{bounds: partitionRootsRange(g, opts.workerCount(), lo, head)}
		plan.last.Store(int64(len(plan.bounds) - 2))
		res, err := mineChunks(g, m, opts, plan)
		sk.Result = res
		if res.Truncated || err != nil {
			return sk, err
		}
		if res.Matches > sk.Skip {
			return sk, nil
		}
		sk.Skip -= res.Matches
		sk.Start = head
	}
	// Chunk k lies wholly inside the window iff k < end. The walk
	// position k and sk advance under x.mu, also from the workers' done
	// calls while a run of chunks is being counted.
	end := int64(sort.Search(len(x.bounds), func(k int) bool { return x.bounds[k] > hi })) - 1
	k := int64(c)
	found := false // the walk reached the chunk holding match offset
	walk := func() {
		for ; k < end && sk.Skip > 0 && x.counts[k] >= 0; k++ {
			if x.counts[k] > sk.Skip {
				break
			}
			sk.Skip -= x.counts[k]
			sk.Start = x.bounds[k+1]
		}
		found = sk.Skip == 0 || k < end && x.counts[k] > sk.Skip
	}
	for {
		x.mu.Lock()
		walk()
		if found || k >= end {
			x.mu.Unlock()
			return sk, nil
		}
		// Count the run of unknown chunks from k on, in order.
		run := k
		for run < end && x.counts[run] < 0 {
			run++
		}
		x.mu.Unlock()
		plan := &chunkPlan{bounds: x.bounds}
		plan.next.Store(k)
		plan.last.Store(run - 1)
		plan.done = func(j, matches int64) {
			x.mu.Lock()
			defer x.mu.Unlock()
			x.counts[j] = matches
			sk.Counted++
			walk()
			if found && k < plan.last.Load() {
				plan.last.Store(k) // chunks past the target are not needed
			}
		}
		res, err := mineChunks(g, m, opts, plan)
		sk.Result.Stats.Add(res.Stats)
		if res.Truncated || err != nil {
			sk.Result.Truncated, sk.Result.StopReason = true, res.StopReason
			return sk, err
		}
	}
}
