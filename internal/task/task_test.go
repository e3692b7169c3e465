package task

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mint/internal/mackey"
	"mint/internal/oracle"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

func fig1Graph() *temporal.Graph {
	return temporal.MustNewGraph([]temporal.Edge{
		{Src: 0, Dst: 1, Time: 5},
		{Src: 1, Dst: 2, Time: 10},
		{Src: 2, Dst: 0, Time: 20},
		{Src: 2, Dst: 3, Time: 25},
		{Src: 1, Dst: 2, Time: 30},
		{Src: 0, Dst: 1, Time: 40},
	})
}

func cycle3(delta temporal.Timestamp) *temporal.Motif {
	return temporal.MustNewMotif("cycle3", delta,
		[]temporal.MotifEdge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}})
}

func TestTypeString(t *testing.T) {
	if Search.String() != "search" || BookKeep.String() != "bookkeep" || Backtrack.String() != "backtrack" {
		t.Fatal("bad Type strings")
	}
	if Type(9).String() == "" {
		t.Fatal("unknown type must still render")
	}
}

func TestCAMBasics(t *testing.T) {
	var c NodeCAM
	if _, ok := c.LookupG(3); ok {
		t.Fatal("empty CAM hit")
	}
	c.Bind(10, 0)
	c.Bind(11, 1)
	c.Bind(10, 0) // second edge touching node 10
	if m, ok := c.LookupG(10); !ok || m != 0 {
		t.Fatalf("LookupG(10) = %d,%v", m, ok)
	}
	if g, ok := c.LookupM(1); !ok || g != 11 {
		t.Fatalf("LookupM(1) = %d,%v", g, ok)
	}
	if c.Size() != 2 {
		t.Fatalf("size = %d", c.Size())
	}
	if freed := c.Unbind(10); freed {
		t.Fatal("node 10 freed while an edge still references it")
	}
	if freed := c.Unbind(10); !freed {
		t.Fatal("node 10 not freed at count zero")
	}
	if _, ok := c.LookupG(10); ok {
		t.Fatal("freed mapping still visible")
	}
	if _, ok := c.LookupM(0); ok {
		t.Fatal("freed reverse mapping still visible")
	}
}

func TestCAMConflictPanics(t *testing.T) {
	var c NodeCAM
	c.Bind(10, 0)
	mustPanic(t, func() { c.Bind(10, 1) }) // graph node already mapped elsewhere
	mustPanic(t, func() { c.Bind(12, 0) }) // motif node already mapped elsewhere
	mustPanic(t, func() { c.Unbind(99) })  // unmapped node
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestContextSizeMatchesPaperEstimate(t *testing.T) {
	// §IV-B: ~178 B for an eight-edge motif. Our layout accounting should
	// land in the same ballpark (same asymptotics, similar constant).
	got := SizeBytes(temporal.MaxMotifEdges)
	if got < 120 || got > 260 {
		t.Fatalf("context size = %d B, want ~178 B ballpark", got)
	}
}

func TestContextLifecycle(t *testing.T) {
	g := fig1Graph()
	m := cycle3(25)
	var ctx Context
	if ok := ctx.StartRoot(g, m, 0); !ok {
		t.Fatal("root on edge 0 rejected")
	}
	if !ctx.Busy || ctx.Depth != 1 || ctx.EM != 1 || ctx.RootEG != 0 {
		t.Fatalf("after root: %+v", ctx)
	}
	if ctx.Deadline != 30 { // t=5 + δ=25
		t.Fatalf("deadline = %d", ctx.Deadline)
	}
	// Walk the Fig 4(d) flow: search finds edge 1 (1→2,10).
	eG := ExecuteSearch(&ctx, g, m)
	if eG != 1 {
		t.Fatalf("first search = %d, want 1", eG)
	}
	ctx.Cursor = eG
	if complete := ctx.Bookkeep(g, m, eG); complete {
		t.Fatal("motif complete too early")
	}
	eG = ExecuteSearch(&ctx, g, m)
	if eG != 2 {
		t.Fatalf("second search = %d, want 2", eG)
	}
	ctx.Cursor = eG
	if complete := ctx.Bookkeep(g, m, eG); !complete {
		t.Fatal("motif should be complete")
	}
	got := ctx.Matched()
	want := []temporal.EdgeID{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("matched = %v, want %v", got, want)
		}
	}
	// Unwind fully.
	for !ctx.Backtrack(g, m) {
	}
	if ctx.Busy || ctx.CAM.Size() != 0 || ctx.Depth != 0 {
		t.Fatalf("context not clean after exhaustion: %+v", ctx)
	}
}

func TestStartRootRejectsSelfLoop(t *testing.T) {
	g := temporal.MustNewGraph([]temporal.Edge{{Src: 1, Dst: 1, Time: 1}})
	var ctx Context
	if ctx.StartRoot(g, cycle3(10), 0) {
		t.Fatal("self-loop accepted as root")
	}
	if ctx.Busy {
		t.Fatal("context busy after rejected root")
	}
}

func TestPlanSearchShapes(t *testing.T) {
	g := fig1Graph()
	m := cycle3(25)
	var ctx Context
	ctx.StartRoot(g, m, 0) // maps A=0, B=1; next motif edge B→C: only src mapped
	spec := PlanSearch(&ctx, g, m)
	if spec.Global || !spec.Out || spec.Node != 1 || spec.MatchDst != temporal.InvalidNode {
		t.Fatalf("spec after root = %+v", spec)
	}
	ctx.Cursor = 1
	ctx.Bookkeep(g, m, 1) // maps C=2; next motif edge C→A: both mapped
	spec = PlanSearch(&ctx, g, m)
	if spec.Global || spec.MatchSrc != 2 || spec.MatchDst != 0 {
		t.Fatalf("spec with both mapped = %+v", spec)
	}

	// A disconnected second motif edge gives the global shape.
	disc := temporal.MustNewMotif("disc", 25, []temporal.MotifEdge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}})
	var ctx2 Context
	ctx2.StartRoot(g, disc, 0)
	spec = PlanSearch(&ctx2, g, disc)
	if !spec.Global {
		t.Fatalf("disconnected motif spec = %+v", spec)
	}
}

func TestRunMatchesMackeyAndOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		g := testutil.RandomGraph(rng, 3+rng.Intn(6), 5+rng.Intn(30), 100)
		m := testutil.RandomConnectedMotif(rng, 2+rng.Intn(3), temporal.Timestamp(5+rng.Int63n(60)))
		want := oracle.Count(g, m)
		if got := Run(g, m, 4); got != want {
			t.Fatalf("trial %d Run: got %d, want %d (motif %v)", trial, got, want, m)
		}
		if got := RunQueue(g, m, 4, 8); got != want {
			t.Fatalf("trial %d RunQueue: got %d, want %d (motif %v)", trial, got, want, m)
		}
		if got := mackey.Mine(g, m, mackey.Options{}).Matches; got != want {
			t.Fatalf("trial %d mackey drifted from oracle: %d vs %d", trial, got, want)
		}
	}
}

func TestRunQueueTinyInputs(t *testing.T) {
	empty := temporal.MustNewGraph(nil)
	if got := RunQueue(empty, cycle3(10), 2, 4); got != 0 {
		t.Fatalf("empty graph: %d", got)
	}
	loops := temporal.MustNewGraph([]temporal.Edge{{Src: 1, Dst: 1, Time: 1}})
	if got := RunQueue(loops, cycle3(10), 2, 4); got != 0 {
		t.Fatalf("self-loop graph: %d", got)
	}
}

// TestRunQueueProperty uses testing/quick to vary worker/context counts;
// the async execution schedule must never change the count.
func TestRunQueueProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := testutil.RandomGraph(rng, 8, 60, 150)
	m := cycle3(50)
	want := oracle.Count(g, m)
	f := func(w, c uint8) bool {
		workers := 1 + int(w%8)
		contexts := 1 + int(c%32)
		return RunQueue(g, m, workers, contexts) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRunQueueSeedingNeverRacesRetirement: every tree here retires on
// its first search (edges sit far further apart than δ), so workers
// recycle contexts onto fresh roots as fast as the seeder hands them
// out. The queue must not close while the seeder still holds a claimed
// root: a worker that retires the last live context mid-seed would
// otherwise close it under the seeder's pending send.
func TestRunQueueSeedingNeverRacesRetirement(t *testing.T) {
	edges := make([]temporal.Edge, 48)
	for i := range edges {
		edges[i] = temporal.Edge{Src: temporal.NodeID(i % 7), Dst: temporal.NodeID(i%7 + 1), Time: temporal.Timestamp(i * 1000)}
	}
	g := temporal.MustNewGraph(edges)
	m := cycle3(10)
	for run := 0; run < 2000; run++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("run %d: RunQueue panicked: %v", run, r)
				}
			}()
			if got := RunQueue(g, m, 4, 64); got != 0 {
				t.Fatalf("run %d: got %d matches, want 0", run, got)
			}
		}()
	}
}
