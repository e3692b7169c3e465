package mackey

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"mint/internal/faultinject"
	"mint/internal/oracle"
	"mint/internal/runctl"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

// windowMatches is the oracle's enumeration restricted to roots in
// [lo, hi), in the enumeration order.
func windowMatches(g *temporal.Graph, m *temporal.Motif, lo, hi temporal.EdgeID) [][]int32 {
	var out [][]int32
	oracle.Enumerate(g, m, func(seq []temporal.EdgeID) bool {
		if seq[0] >= lo && seq[0] < hi {
			out = append(out, asInt32(new([]int32), seq))
		}
		return true
	})
	return out
}

// seekPage enumerates one page after a seek: limit matches from Start,
// skipping Skip.
func seekPage(g *temporal.Graph, m *temporal.Motif, sk Seek, hi temporal.EdgeID, limit int) [][]int32 {
	var out [][]int32
	skip := sk.Skip
	Mine(g, m, Options{
		Roots: &RootRange{Lo: sk.Start, Hi: hi},
		Probe: matchFunc(func(edges []int32) {
			if skip > 0 {
				skip--
			} else if len(out) < limit {
				out = append(out, slices.Clone(edges))
			}
		}),
	})
	return out
}

type matchFunc func([]int32)

func (matchFunc) NeighborhoodAccess(int32, bool, int, int, int32) {}
func (f matchFunc) Match(edges []int32)                           { f(edges) }

// checkStoredCounts fails if any stored chunk count differs from a
// fresh count of that chunk: the index must only ever hold exact counts.
func checkStoredCounts(t *testing.T, g *temporal.Graph, m *temporal.Motif, x *ChunkIndex) {
	t.Helper()
	x.mu.Lock()
	defer x.mu.Unlock()
	for k, n := range x.counts {
		if n < 0 {
			continue
		}
		want := Mine(g, m, Options{Roots: &RootRange{Lo: x.bounds[k], Hi: x.bounds[k+1]}}).Matches
		if n != want {
			t.Fatalf("chunk %d stores %d matches, holds %d", k, n, want)
		}
	}
}

// seekOffsets are the offsets the differential checks for a window
// with total matches: 0, every chunk boundary's running count and one
// past it, the middle, the last match, the end and beyond.
func seekOffsets(g *temporal.Graph, m *temporal.Motif, x *ChunkIndex, lo, hi temporal.EdgeID, total int64) []int64 {
	offs := []int64{0, 1, total / 2, total - 1, total, total + 3}
	run := int64(0)
	for k := 0; k+1 < len(x.bounds); k++ {
		a, b := max(x.bounds[k], lo), min(x.bounds[k+1], hi)
		if a >= b {
			continue
		}
		run += Mine(g, m, Options{Roots: &RootRange{Lo: a, Hi: b}}).Matches
		offs = append(offs, run, run+1)
	}
	return slices.DeleteFunc(offs, func(o int64) bool { return o < 0 })
}

// TestChunkIndexSeekDifferential: for random graphs, M1–M4 and random
// motifs, several δ, root windows aligned and not aligned to chunk
// bounds, and offsets on, inside and beyond chunk boundaries, a seek
// followed by the page walk yields exactly the oracle's
// [offset, offset+limit) slice. One index per (graph, motif) serves
// every window and offset, so cold, partly built and warm walks all
// occur; every count it stores stays exact.
func TestChunkIndexSeekDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		g := testutil.RandomGraph(rng, 6+rng.Intn(6), 60+rng.Intn(120), 400)
		delta := temporal.Timestamp(40 + rng.Intn(120))
		motifs := []*temporal.Motif{temporal.M1(delta), temporal.M2(delta), temporal.M3(delta), temporal.M4(delta),
			testutil.RandomConnectedMotif(rng, 2+rng.Intn(2), delta)}
		for _, m := range motifs {
			x := NewChunkIndex(g)
			n := temporal.EdgeID(g.NumEdges())
			b := x.bounds
			windows := [][2]temporal.EdgeID{
				{0, n},
				{b[len(b)/3], b[2*len(b)/3]},           // aligned
				{b[1] + 1, n - 2},                      // inside a chunk at both ends
				{temporal.EdgeID(rng.Intn(int(n))), n}, // arbitrary start
				{b[len(b)/2] + 1, b[len(b)/2] + 2},     // inside one chunk
			}
			for _, w := range windows {
				lo, hi := w[0], max(w[0], w[1])
				want := windowMatches(g, m, lo, hi)
				total := int64(len(want))
				for _, off := range seekOffsets(g, m, x, lo, hi, total) {
					for _, limit := range []int{1, 3, 50} {
						workers := 1 + (trial+limit)%3
						sk, err := x.Seek(g, m, Options{Workers: workers}, lo, hi, off)
						if err != nil || sk.Result.Truncated {
							t.Fatalf("unbudgeted seek truncated: %v %+v", err, sk.Result)
						}
						got := seekPage(g, m, sk, hi, limit)
						wantPage := want[min(off, total):min(off+int64(limit), total)]
						if len(got) != len(wantPage) || (len(got) > 0 && !slices.EqualFunc(got, wantPage, slices.Equal)) {
							t.Fatalf("trial %d motif %s window [%d,%d) offset %d limit %d: page %v, oracle %v (seek %+v)",
								trial, m, lo, hi, off, limit, got, wantPage, sk)
						}
					}
				}
			}
			checkStoredCounts(t, g, m, x)
		}
	}
}

// TestChunkIndexCutShortStoresNothing: a seek stopped mid-build by a
// node budget, an expired deadline or an injected fault reports
// Truncated and stores no count it did not finish, and the next
// unbounded seek on the same index is exact.
func TestChunkIndexCutShortStoresNothing(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(3)), 24, 1500, 500)
	m := temporal.M1(300)
	n := temporal.EdgeID(g.NumEdges())
	var want [][]int32
	Mine(g, m, Options{Probe: matchFunc(func(edges []int32) { want = append(want, slices.Clone(edges)) })})
	target := int64(len(want)) - 5
	plan, err := faultinject.Parse("seed=5,error=0.2,sites=mackey.chunk")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		b    runctl.Budget
		plan *faultinject.Plan
		want runctl.Reason
	}{
		{"node budget", runctl.Budget{MaxNodes: 8_000}, nil, runctl.NodeBudget},
		{"deadline", runctl.Budget{Deadline: time.Now().Add(-time.Second)}, nil, runctl.DeadlineExceeded},
		{"fault", runctl.Budget{}, plan, runctl.FaultInjected},
	} {
		for _, workers := range []int{1, 2} {
			x := NewChunkIndex(g)
			ctl := runctl.New(context.Background(), tc.b)
			ctl.SetFaultPlan(tc.plan)
			sk, _ := x.Seek(g, m, Options{Workers: workers, Ctl: ctl}, 0, n, target)
			if !sk.Result.Truncated || sk.Result.StopReason != tc.want {
				t.Fatalf("%s, workers %d: seek result %+v, want truncated by %v", tc.name, workers, sk.Result, tc.want)
			}
			if !slices.Contains(x.counts, -1) {
				t.Fatalf("%s, workers %d: the stop came after the whole index was built", tc.name, workers)
			}
			checkStoredCounts(t, g, m, x)
			sk, err := x.Seek(g, m, Options{Workers: 2}, 0, n, target)
			if err != nil || sk.Result.Truncated {
				t.Fatalf("%s: unbounded seek after a cut-short one: %v %+v", tc.name, err, sk.Result)
			}
			if got := seekPage(g, m, sk, n, 10); !slices.EqualFunc(got, want[target:], slices.Equal) {
				t.Fatalf("%s: page after a cut-short seek %v, full walk %v", tc.name, got, want[target:])
			}
			checkStoredCounts(t, g, m, x)
		}
	}
}

// TestChunkIndexConcurrentSeeks: concurrent deep seeks on one cold index
// (run under -race) each land on the oracle's page.
func TestChunkIndexConcurrentSeeks(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(9)), 10, 500, 1000)
	m := temporal.M2(150)
	n := temporal.EdgeID(g.NumEdges())
	want := windowMatches(g, m, 0, n)
	x := NewChunkIndex(g)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off := int64(len(want)) * int64(16-i) / 17
			sk, err := x.Seek(g, m, Options{Workers: 1 + i%3}, 0, n, off)
			if err != nil || sk.Result.Truncated {
				errs <- fmt.Errorf("seek %d truncated: %v", i, err)
				return
			}
			got := seekPage(g, m, sk, n, 7)
			if !slices.EqualFunc(got, want[off:min(off+7, int64(len(want)))], slices.Equal) {
				errs <- fmt.Errorf("offset %d: page %v differs from the oracle", off, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkStoredCounts(t, g, m, x)
}

// TestChunkIndexSeekStopsAtTarget: a single-worker cold seek counts no
// chunk past the one holding its offset.
func TestChunkIndexSeekStopsAtTarget(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(4)), 10, 400, 800)
	m := temporal.M1(120)
	n := temporal.EdgeID(g.NumEdges())
	total := int64(len(windowMatches(g, m, 0, n)))
	x := NewChunkIndex(g)
	sk, err := x.Seek(g, m, Options{Workers: 1}, 0, n, total/3)
	if err != nil || sk.Result.Truncated {
		t.Fatalf("seek: %v %+v", err, sk.Result)
	}
	last := -1
	for k, c := range x.counts {
		if c >= 0 {
			last = k
		}
	}
	// The last chunk counted holds the offset and starts at sk.Start —
	// or, when the offset falls exactly on a chunk bound, ends there.
	if last < 0 || x.bounds[last] != sk.Start && !(sk.Skip == 0 && x.bounds[last+1] == sk.Start) {
		t.Fatalf("last counted chunk %d starts at %d; the page starts at root %d", last, x.bounds[max(last, 0)], sk.Start)
	}
}

// TestChunkIndexStopInLastTreeStoresNothing: a stop that lands in the
// last root tree of a chunk leaves that chunk's loop looking finished;
// its short count must still not be stored. Here every chunk is one
// root (a 31-edge graph), and each root's out-star tree spans thousands
// of nodes, so every node-budget stop lands in a chunk's last tree.
func TestChunkIndexStopInLastTreeStoresNothing(t *testing.T) {
	edges := make([]temporal.Edge, 31)
	for i := range edges {
		edges[i] = temporal.Edge{Src: 0, Dst: temporal.NodeID(i + 1), Time: temporal.Timestamp(i)}
	}
	g := temporal.MustNewGraph(edges)
	m := temporal.M4(100)
	n := temporal.EdgeID(g.NumEdges())
	total := Mine(g, m, Options{}).Matches
	for _, nodes := range []int64{runctl.CheckInterval, 3 * runctl.CheckInterval, 5 * runctl.CheckInterval} {
		x := NewChunkIndex(g)
		ctl := runctl.New(context.Background(), runctl.Budget{MaxNodes: nodes})
		sk, _ := x.Seek(g, m, Options{Workers: 1, Ctl: ctl}, 0, n, total-1)
		if !sk.Result.Truncated || sk.Result.StopReason != runctl.NodeBudget {
			t.Fatalf("MaxNodes %d: seek result %+v, want a node-budget stop", nodes, sk.Result)
		}
		checkStoredCounts(t, g, m, x)
	}
}
