// Package shard time-partitions a temporal graph's root space into
// δ-aware shards for scatter-gather mining.
//
// The decomposition lifts the contiguity argument of the in-process
// scheduler (mackey.partitionRoots splits the edge list into contiguous,
// timestamp-aligned index ranges) from edge indices to timestamp ranges,
// so it survives a process boundary: a coordinator that only knows the
// dataset's time span can compute the same partition every worker does.
//
// Ownership rule (the "dedup" of the scatter-gather merge): shard i owns
// the half-open root window [b_i, b_i+1) — a motif instance belongs to
// shard i iff its root (earliest) edge's timestamp falls in that window.
// The windows are disjoint and cover the span, so every instance has
// exactly one owner and merged counts are plain sums; there is nothing
// to dedup after the fact. Because ownership is decided by timestamp
// against a half-open boundary, duplicate timestamps can never straddle
// a cut: every edge at time b belongs to the shard whose window starts
// at (or covers) b — the same "never split a timestamp tie" invariant
// partitionRoots enforces by snapping index boundaries.
//
// δ-awareness: a motif window only extends forward from its root
// ([t_root, t_root+δ], Mackey et al. Algorithm 1), so the data a shard
// needs to mine its owned window [lo, hi) is exactly the edges in
// [lo, hi-1+δ] — i.e. the half-open data range [lo, hi+δ). DataRange
// reports it and Slice materializes it; a worker holding only its slice
// still produces counts identical to a full-data worker (proved by the
// package tests). When δ exceeds a shard's own span the overlap would
// dominate the slice, so Plan merges shards until every owned window
// spans at least δ (or one shard remains).
package shard

import (
	"fmt"

	"mint/internal/checkpoint"
	"mint/internal/temporal"
)

// Range is a half-open timestamp window [Start, End).
type Range struct {
	Start temporal.Timestamp `json:"start"`
	End   temporal.Timestamp `json:"end"`
}

// Contains reports whether t falls in the window.
func (r Range) Contains(t temporal.Timestamp) bool { return t >= r.Start && t < r.End }

// Span is the window's width.
func (r Range) Span() temporal.Timestamp { return r.End - r.Start }

// Plan is a δ-aware partition of a dataset's time span into owned root
// windows. Build one with New; a Plan is a pure function of
// (span, shards, δ), so any party holding the same three inputs —
// coordinator, worker, offline slicer — computes bit-identical ranges.
type Plan struct {
	Delta  temporal.Timestamp
	Ranges []Range
}

// New partitions the inclusive timestamp span [minTime, maxTime] into at
// most shards owned root windows. The windows are contiguous, disjoint,
// and cover [minTime, maxTime+1); each spans at least delta unless a
// single shard remains (the merge rule for δ > span). shards < 1 is
// treated as 1; an inverted span yields a single degenerate window.
func New(minTime, maxTime temporal.Timestamp, shards int, delta temporal.Timestamp) Plan {
	if shards < 1 {
		shards = 1
	}
	if delta < 0 {
		delta = 0
	}
	if maxTime < minTime {
		maxTime = minTime
	}
	total := maxTime - minTime + 1
	// Merge rule: never cut a shard narrower than δ. A shard whose owned
	// window is narrower than its overlap region does asymptotically
	// duplicated work, so reduce the shard count until each owned window
	// spans at least δ (or give up and use one shard).
	n := temporal.Timestamp(shards)
	for n > 1 && total/n < delta {
		n--
	}
	// A window must own at least one representable timestamp.
	if n > total {
		n = total
	}
	p := Plan{Delta: delta, Ranges: make([]Range, 0, n)}
	prev := minTime
	for i := temporal.Timestamp(1); i <= n; i++ {
		end := minTime + total*i/n
		if i == n {
			end = maxTime + 1
		}
		if end <= prev {
			continue // degenerate cut on a tiny span; fold into the next
		}
		p.Ranges = append(p.Ranges, Range{Start: prev, End: end})
		prev = end
	}
	return p
}

// PlanForGraph is New over a graph's own time extent.
func PlanForGraph(g *temporal.Graph, shards int, delta temporal.Timestamp) Plan {
	if g.NumEdges() == 0 {
		return New(0, 0, 1, delta)
	}
	return New(g.Edges[0].Time, g.Edges[g.NumEdges()-1].Time, shards, delta)
}

// NumShards reports how many owned windows the plan actually has (≤ the
// shard count requested, after δ-merging).
func (p Plan) NumShards() int { return len(p.Ranges) }

// Owned returns shard i's root-ownership window.
func (p Plan) Owned(i int) Range { return p.Ranges[i] }

// DataRange returns the data window shard i must hold to mine its owned
// window self-sufficiently: the owned window widened forward by δ. No
// backward widening is needed — motif windows only extend forward from
// their root.
func (p Plan) DataRange(i int) Range {
	r := p.Ranges[i]
	return Range{Start: r.Start, End: r.End + p.Delta}
}

// OwnerOf returns the index of the shard owning root timestamp t, or -1
// when t is outside the planned span.
func (p Plan) OwnerOf(t temporal.Timestamp) int {
	for i, r := range p.Ranges {
		if r.Contains(t) {
			return i
		}
	}
	return -1
}

// Validate checks the plan invariants: contiguous, disjoint, non-empty
// windows each spanning at least δ (single-shard plans excepted).
func (p Plan) Validate() error {
	if len(p.Ranges) == 0 {
		return fmt.Errorf("shard: plan has no ranges")
	}
	for i, r := range p.Ranges {
		if r.End <= r.Start {
			return fmt.Errorf("shard: range %d is empty or inverted: [%d, %d)", i, r.Start, r.End)
		}
		if i > 0 && r.Start != p.Ranges[i-1].End {
			return fmt.Errorf("shard: gap between range %d (ends %d) and %d (starts %d)",
				i-1, p.Ranges[i-1].End, i, r.Start)
		}
		if len(p.Ranges) > 1 && r.Span() < p.Delta {
			return fmt.Errorf("shard: range %d spans %d < delta %d (merge rule violated)",
				i, r.Span(), p.Delta)
		}
	}
	return nil
}

// Slice materializes the subgraph of g holding exactly the edges whose
// timestamp falls in the half-open window r — a shard's local dataset.
// Node IDs are preserved; edge IDs are renumbered (the slice's edge i is
// g's edge offset+i, offset being the second return). Counting is
// ID-agnostic, so a worker mining a root window over its slice matches a
// full-data worker; enumeration over slices returns slice-local edge IDs
// and needs the offset to translate.
func Slice(g *temporal.Graph, r Range) (*temporal.Graph, temporal.EdgeID, error) {
	lo, hi := g.EdgeRange(r.Start, r.End)
	sub, err := temporal.NewGraph(g.Edges[lo:hi])
	if err != nil {
		return nil, 0, fmt.Errorf("shard: slicing [%d, %d): %w", r.Start, r.End, err)
	}
	return sub, lo, nil
}

// Fingerprint computes a dataset-identity string for g over every edge
// (src, dst, time) plus the node count. A coordinator refuses to merge
// shard responses whose fingerprints disagree — two workers serving
// different data under one dataset name would otherwise merge into a
// silently wrong total, the exact failure mode the response contract
// exists to prevent. The full scan (not a sample) is deliberate: a
// single perturbed edge must change the identity. It is O(edges) — run
// it once per dataset load, not per query. Shards of the *same* dataset
// sliced to different windows also disagree (by design: identity is the
// data held); sliced deployments verify against the slicer's manifest
// instead.
func Fingerprint(g *temporal.Graph) string {
	h := checkpoint.NewHasher()
	h.Add(int64(g.NumNodes()))
	h.Add(int64(g.NumEdges()))
	for _, e := range g.Edges {
		h.Add(int64(e.Src))
		h.Add(int64(e.Dst))
		h.Add(int64(e.Time))
	}
	return checkpoint.FormatFingerprint("graph", h.Sum64())
}
