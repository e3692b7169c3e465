package mint

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"mint/internal/testutil"
)

func streamAppend(t *testing.T, s *Stream, seq uint64, edges []Edge) AppendResult {
	t.Helper()
	res, err := s.Append(context.Background(), "test", seq, edges)
	if err != nil {
		t.Fatalf("Append(seq=%d): %v", seq, err)
	}
	return res
}

func TestStreamAppendAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := OpenStream(dir, StreamOptions{})
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	if rec.Records != 0 || rec.Truncated {
		t.Fatalf("fresh stream recovered %+v", rec)
	}
	g := testutil.RandomGraph(rand.New(rand.NewSource(3)), 12, 60, 500)
	for i := 0; i < len(g.Edges); i += 10 {
		end := i + 10
		if end > len(g.Edges) {
			end = len(g.Edges)
		}
		streamAppend(t, s, uint64(i/10+1), g.Edges[i:end])
	}
	live, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Edges) != len(g.Edges) {
		t.Fatalf("live graph has %d edges, want %d", len(live.Edges), len(g.Edges))
	}
	info := s.Info()
	s.Close()

	// Cold reopen: replay must rebuild the identical live graph — the
	// "cold full mine of the same prefix" target of the differential gate.
	s2, rec2, err := OpenStream(dir, StreamOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rec2.Truncated {
		t.Fatalf("clean reopen reported truncation: %s", rec2.Detail)
	}
	live2, _ := s2.Graph()
	if !reflect.DeepEqual(live.Edges, live2.Edges) {
		t.Fatalf("replayed graph differs from live graph")
	}
	if info2 := s2.Info(); info2.Fingerprint != info.Fingerprint || info2.Seq != info.Seq {
		t.Fatalf("replayed info %+v != live info %+v", info2, info)
	}
	m := M1(300)
	if a, b := Count(live, m), Count(live2, m); a != b {
		t.Fatalf("counts differ after replay: %d vs %d", a, b)
	}
}

func TestStreamIdempotentRetry(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenStream(dir, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batch := []Edge{{Src: 1, Dst: 2, Time: 10}, {Src: 2, Dst: 3, Time: 20}}
	first := streamAppend(t, s, 1, batch)
	if first.Dup || first.Accepted != 2 {
		t.Fatalf("first append: %+v", first)
	}
	retry := streamAppend(t, s, 1, batch)
	if !retry.Dup {
		t.Fatalf("retry not detected as duplicate: %+v", retry)
	}
	live, _ := s.Graph()
	if len(live.Edges) != 2 {
		t.Fatalf("duplicate applied: %d edges", len(live.Edges))
	}
}

func TestStreamSlidingWindowEviction(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenStream(dir, StreamOptions{Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		streamAppend(t, s, uint64(i+1), []Edge{{Src: NodeID(i % 5), Dst: NodeID(i%5 + 1), Time: Timestamp(i * 10)}})
	}
	info := s.Info()
	if info.Cutoff != 290-100 {
		t.Fatalf("cutoff = %d, want %d", info.Cutoff, 190)
	}
	live, _ := s.Graph()
	for _, e := range live.Edges {
		if e.Time < info.Cutoff {
			t.Fatalf("evicted edge %v still live (cutoff %d)", e, info.Cutoff)
		}
	}
	// A late edge below the cutoff is dropped deterministically.
	res := streamAppend(t, s, 31, []Edge{{Src: 1, Dst: 2, Time: 5}})
	if res.Accepted != 0 || res.Evicted != 1 {
		t.Fatalf("late edge: %+v", res)
	}
	s.Close()
	// Replay applies the same eviction: identical live set.
	s2, _, err := OpenStream(dir, StreamOptions{Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	live2, _ := s2.Graph()
	if !reflect.DeepEqual(live.Edges, live2.Edges) {
		t.Fatalf("eviction not reproduced on replay")
	}
}

func TestStreamStandingQueryIncremental(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenStream(dir, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := testutil.RandomGraph(rand.New(rand.NewSource(11)), 10, 120, 900)
	m1, m2 := M1(200), M2(350)
	if _, err := s.Register(context.Background(), "q1", m1); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := s.Register(context.Background(), "q2", m2); err != nil {
		t.Fatalf("Register: %v", err)
	}
	for i := 0; i < len(g.Edges); i += 7 {
		end := i + 7
		if end > len(g.Edges) {
			end = len(g.Edges)
		}
		streamAppend(t, s, uint64(i/7+1), g.Edges[i:end])
		live, _ := s.Graph()
		for _, sc := range s.Standing() {
			if sc.Stale {
				t.Fatalf("standing %q stale without a budget: %s", sc.Name, sc.Reason)
			}
			var want int64
			switch sc.Name {
			case "q1":
				want = Count(live, m1)
			case "q2":
				want = Count(live, m2)
			}
			if sc.Count != want {
				t.Fatalf("after batch %d: standing %q = %d, full mine = %d", i/7+1, sc.Name, sc.Count, want)
			}
		}
	}
	ok, err := s.Unregister("q1")
	if err != nil || !ok {
		t.Fatalf("Unregister(q1) = %v, %v; want true, nil", ok, err)
	}
	ok, err = s.Unregister("q1")
	if err != nil || ok {
		t.Fatalf("second Unregister(q1) = %v, %v; want false, nil", ok, err)
	}
}

func TestStreamStandingQueryWithEviction(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenStream(dir, StreamOptions{Workers: 2, Window: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := M1(150)
	if _, err := s.Register(context.Background(), "q", m); err != nil {
		t.Fatal(err)
	}
	g := testutil.RandomGraph(rand.New(rand.NewSource(23)), 8, 150, 1200)
	evictedSome := false
	for i := 0; i < len(g.Edges); i += 5 {
		end := i + 5
		if end > len(g.Edges) {
			end = len(g.Edges)
		}
		res := streamAppend(t, s, uint64(i/5+1), g.Edges[i:end])
		if res.Evicted > 0 {
			evictedSome = true
		}
		live, _ := s.Graph()
		sc := s.Standing()[0]
		if sc.Stale {
			t.Fatalf("stale: %s", sc.Reason)
		}
		if want := Count(live, m); sc.Count != want {
			t.Fatalf("batch %d: standing=%d full=%d (cutoff %d)", i/5+1, sc.Count, want, s.Info().Cutoff)
		}
	}
	if !evictedSome {
		t.Fatalf("test never evicted; widen the graph span or shrink the window")
	}
}

// TestStreamStandingQueryEvictionNegativeTimestamps pins the eviction
// fold for live sets that hold negative timestamps (the wire accepts any
// int64 time). The committed baseline starts with no cutoff at all, so
// the first eviction's "what left the window" mine must be rooted from
// the beginning of time — rooting it at the zero timestamp would skip
// every negative-rooted instance and silently commit wrong counts.
func TestStreamStandingQueryEvictionNegativeTimestamps(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenStream(dir, StreamOptions{Workers: 2, Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := M1(50)
	// Batch 1 lives entirely below zero and forms M1 (3-cycle) instances
	// there.
	neg := []Edge{
		{Src: 1, Dst: 2, Time: -90}, {Src: 2, Dst: 3, Time: -80}, {Src: 3, Dst: 1, Time: -70},
		{Src: 4, Dst: 5, Time: -60}, {Src: 5, Dst: 6, Time: -55}, {Src: 6, Dst: 4, Time: -50},
	}
	streamAppend(t, s, 1, neg)
	reg, err := s.Register(context.Background(), "q", m)
	if err != nil {
		t.Fatal(err)
	}
	liveNeg, _ := s.Graph()
	if want := Count(liveNeg, m); reg.Count != want || want == 0 {
		t.Fatalf("negative-time baseline: standing=%d full=%d (want non-zero)", reg.Count, want)
	}
	// Batch 2 advances the watermark so the cutoff lands at -30: still
	// negative, and everything from batch 1 evicts. The standing count
	// must track a cold mine of the post-eviction live graph exactly.
	pos := []Edge{
		{Src: 7, Dst: 8, Time: 40}, {Src: 8, Dst: 9, Time: 55}, {Src: 9, Dst: 7, Time: 70},
	}
	res := streamAppend(t, s, 2, pos)
	if res.Evicted != len(neg) {
		t.Fatalf("evicted %d edges, want %d (cutoff %d)", res.Evicted, len(neg), s.Info().Cutoff)
	}
	live, _ := s.Graph()
	sc := s.Standing()[0]
	if sc.Stale {
		t.Fatalf("stale: %s", sc.Reason)
	}
	if want := Count(live, m); sc.Count != want {
		t.Fatalf("after negative-window eviction: standing=%d full=%d (cutoff %d)",
			sc.Count, want, s.Info().Cutoff)
	}
}

// TestStreamInfoFingerprintCached pins the fingerprint cache: Info on an
// unchanged stream returns the identical fingerprint without rehashing
// behavior changes, and an accepted append invalidates it.
func TestStreamInfoFingerprintCached(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenStream(dir, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	streamAppend(t, s, 1, []Edge{{Src: 1, Dst: 2, Time: 10}})
	a, b := s.Info().Fingerprint, s.Info().Fingerprint
	if a == "" || a != b {
		t.Fatalf("fingerprint unstable across idle Infos: %q vs %q", a, b)
	}
	streamAppend(t, s, 2, []Edge{{Src: 2, Dst: 3, Time: 20}})
	if c := s.Info().Fingerprint; c == a {
		t.Fatalf("fingerprint did not change after an accepted append")
	}
}

// TestStreamStageHistograms pins the ack-path stage histograms: with
// standing queries registered, every accepted append observes one graph
// build (stream.graph_build_ns) and one fold (stream.fold_ns); an
// idempotent retry and a read of the cached graph observe neither.
func TestStreamStageHistograms(t *testing.T) {
	reg := NewObsRegistry("stream")
	s, _, err := OpenStream(t.TempDir(), StreamOptions{Workers: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, m := range []*Motif{M1(200), M2(350)} {
		if _, err := s.Register(context.Background(), m.Name, m); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	build, fold := reg.Histogram("stream.graph_build_ns"), reg.Histogram("stream.fold_ns")
	g := testutil.RandomGraph(rand.New(rand.NewSource(5)), 8, 60, 500)
	for i := 0; i < 6; i++ {
		b0, f0 := build.Count(), fold.Count()
		streamAppend(t, s, uint64(i+1), g.Edges[10*i:10*i+10])
		if _, err := s.Graph(); err != nil {
			t.Fatal(err)
		}
		if db, df := build.Count()-b0, fold.Count()-f0; db != 1 || df != 1 {
			t.Fatalf("append %d observed %d graph builds and %d folds, want 1 and 1", i+1, db, df)
		}
	}
	b0, f0 := build.Count(), fold.Count()
	if res := streamAppend(t, s, 6, g.Edges[50:60]); !res.Dup {
		t.Fatalf("retry of seq 6 not a duplicate: %+v", res)
	}
	if build.Count() != b0 || fold.Count() != f0 {
		t.Fatalf("duplicate append observed a stage")
	}
	if build.Sum() <= 0 || fold.Sum() <= 0 {
		t.Fatalf("stage histograms hold no time: build %d ns, fold %d ns", build.Sum(), fold.Sum())
	}
}

func TestStreamStaleOnTruncatedIntegration(t *testing.T) {
	dir := t.TempDir()
	// A 1-node budget: the register-time mine on the empty graph passes
	// (nothing to expand), the first real integration cannot.
	s, _, err := OpenStream(dir, StreamOptions{
		Workers:         1,
		IntegrateBudget: Budget{MaxNodes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := M1(500)
	reg, err := s.Register(context.Background(), "q", m)
	if err != nil {
		t.Fatalf("Register on empty stream: %v", err)
	}
	if reg.Count != 0 {
		t.Fatalf("empty-stream count = %d", reg.Count)
	}
	g := testutil.RandomGraph(rand.New(rand.NewSource(5)), 6, 80, 400)
	res := streamAppend(t, s, 1, g.Edges)
	if !res.Stale {
		t.Fatalf("append did not report stale standing counts: %+v", res)
	}
	sc := s.Standing()[0]
	if !sc.Stale || sc.Reason == "" {
		t.Fatalf("standing not loudly stale: %+v", sc)
	}
	// Stale = frozen at the last committed value, never silently wrong.
	// (The registration itself is a WAL record now, so the committed
	// position is the registration's seq, not 0.)
	if sc.Count != 0 || sc.Seq != reg.Seq {
		t.Fatalf("stale count moved: %+v (registered at seq %d)", sc, reg.Seq)
	}
	// The graph itself is live and exact regardless.
	live, _ := s.Graph()
	if len(live.Edges) != len(g.Edges) {
		t.Fatalf("live graph lost edges while stale")
	}
	if err := s.Refresh(context.Background()); err == nil {
		t.Fatalf("Refresh succeeded under a 1-node budget")
	}
}

func TestStreamSnapshotCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenStream(dir, StreamOptions{
		SnapshotEvery: 4,
		SegmentBytes:  512,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := testutil.RandomGraph(rand.New(rand.NewSource(9)), 10, 90, 700)
	for i := 0; i < len(g.Edges); i += 6 {
		end := i + 6
		if end > len(g.Edges) {
			end = len(g.Edges)
		}
		streamAppend(t, s, uint64(i/6+1), g.Edges[i:end])
	}
	live, _ := s.Graph()
	s.Close()
	s2, rec, err := OpenStream(dir, StreamOptions{SnapshotEvery: 4, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer s2.Close()
	if rec.SnapshotSeq == 0 {
		t.Fatalf("no snapshot was taken (SnapshotEvery=4, %d appends)", (len(g.Edges)+5)/6)
	}
	live2, _ := s2.Graph()
	if !reflect.DeepEqual(live.Edges, live2.Edges) {
		t.Fatalf("snapshot+tail replay differs from live state")
	}
	// The idempotency ledger survived the snapshot: retrying the last
	// batch is a dup.
	last := uint64((len(g.Edges) + 5) / 6)
	res, err := s2.Append(context.Background(), "test", last, nil)
	if err != nil || !res.Dup {
		t.Fatalf("ledger lost through snapshot: %+v err=%v", res, err)
	}
}

func TestStreamRegisterRejectsTruncatedInitialMine(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenStream(dir, StreamOptions{
		Workers:         1,
		IntegrateBudget: Budget{MaxNodes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := testutil.RandomGraph(rand.New(rand.NewSource(31)), 6, 100, 500)
	streamAppend(t, s, 1, g.Edges)
	if _, err := s.Register(context.Background(), "q", M1(400)); err == nil {
		t.Fatalf("Register accepted a truncated initial mine")
	}
}

func TestStreamOutOfOrderTimestamps(t *testing.T) {
	dir := t.TempDir()
	s, _, err := OpenStream(dir, StreamOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := M1(100)
	if _, err := s.Register(context.Background(), "q", m); err != nil {
		t.Fatal(err)
	}
	// Arrival order deliberately disagrees with timestamp order; standing
	// counts must still match a full mine after every batch.
	batches := [][]Edge{
		{{Src: 0, Dst: 1, Time: 50}, {Src: 1, Dst: 2, Time: 40}},
		{{Src: 2, Dst: 0, Time: 60}, {Src: 0, Dst: 1, Time: 10}},
		{{Src: 1, Dst: 2, Time: 55}, {Src: 2, Dst: 0, Time: 45}},
		{{Src: 2, Dst: 0, Time: 90}, {Src: 1, Dst: 0, Time: 20}},
	}
	for i, b := range batches {
		streamAppend(t, s, uint64(i+1), b)
		live, _ := s.Graph()
		sc := s.Standing()[0]
		if sc.Stale || sc.Count != Count(live, m) {
			t.Fatalf("batch %d: standing=%+v full=%d", i, sc, Count(live, m))
		}
	}
}
