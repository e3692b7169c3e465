package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mint"
	"mint/internal/mackey"
	"mint/internal/obs"
	"mint/internal/oracle"
	"mint/internal/runctl"
	"mint/internal/testutil"
)

// The seek suite: deep enumerate pages, which walk the dataset's chunk
// index instead of re-mining every tree before them, must serve exactly
// the oracle's [offset, offset+limit) slice with the same
// next_page_token the plain walk serves, and a seek cut short must be
// loud and leave the index exact.

// oracleWindow is the oracle's enumeration of m over the roots inside
// the timestamp window w (nil: every root), in enumeration order.
func oracleWindow(g *mint.Graph, m *mint.Motif, w *TimeWindow) [][]int32 {
	lo, hi := mint.EdgeID(0), mint.EdgeID(g.NumEdges())
	if w != nil {
		lo, hi = g.EdgeRange(mint.Timestamp(w.StartTS), mint.Timestamp(w.EndTS))
	}
	out := [][]int32{}
	oracle.Enumerate(g, m, func(seq []mint.EdgeID) bool {
		if seq[0] >= lo && seq[0] < hi {
			match := make([]int32, len(seq))
			for i, id := range seq {
				match[i] = int32(id)
			}
			out = append(out, match)
		}
		return true
	})
	return out
}

// wantPage is the page the plain walk serves at offset: the oracle's
// slice, and a token exactly when the page fills.
func wantPage(all [][]int32, offset int64, limit int) ([][]int32, string) {
	total := int64(len(all))
	page := all[min(offset, total):min(offset+int64(limit), total)]
	if offset+int64(limit) <= total {
		return page, strconv.FormatInt(offset+int64(limit), 10)
	}
	return page, ""
}

// checkPage fails unless resp is the oracle's page, byte for byte on
// the wire.
func checkPage(t *testing.T, tag string, resp *EnumerateResponse, all [][]int32, offset int64, limit int) {
	t.Helper()
	want, token := wantPage(all, offset, limit)
	got, _ := json.Marshal(resp.Matches)
	exp, _ := json.Marshal(want)
	if resp.Truncated || !bytes.Equal(got, exp) || resp.NextPageToken != token {
		t.Fatalf("%s offset %d limit %d: got %s token %q truncated %v (%s), want %s token %q",
			tag, offset, limit, got, resp.NextPageToken, resp.Truncated, resp.StopReason, exp, token)
	}
}

// chunkOffsets returns the offsets that land exactly on the index's
// chunk bounds inside the window (at most n of them, spread out).
func chunkOffsets(g *mint.Graph, all [][]int32, n int) []int64 {
	bounds := mackey.PartitionRoots(g, 1, 0, mint.EdgeID(g.NumEdges()))
	var offs []int64
	for i := 1; i < len(bounds)-1; i += max(1, len(bounds)/n) {
		k := int64(0)
		for k < int64(len(all)) && mint.EdgeID(all[k][0]) < bounds[i] {
			k++
		}
		offs = append(offs, k)
	}
	return offs
}

// TestEnumerateSeekDifferential: across random graphs, M1–M4, two δ,
// root windows aligned and not aligned to chunk bounds, and offsets of
// 0, on a chunk bound, inside a chunk, total−1, total and beyond, every
// page equals the oracle's slice with the plain walk's token — including
// limit 1, and with one server (so one index per key) serving them all
// in a cold-to-warm mix.
func TestEnumerateSeekDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	graphs := map[string]*mint.Graph{}
	for i := 0; i < 3; i++ {
		graphs[fmt.Sprintf("r%d", i)] = testutil.RandomGraph(rng, 8+rng.Intn(6), 150+rng.Intn(150), 1500)
	}
	s := New(Config{Loader: graphLoader(graphs), Workers: 2})
	ctx := context.Background()
	for _, name := range []string{"r0", "r1", "r2"} {
		g := graphs[name]
		bounds := mackey.PartitionRoots(g, 1, 0, mint.EdgeID(g.NumEdges()))
		ts := func(b mint.EdgeID) int64 { return int64(g.Edges[b].Time) }
		windows := []*TimeWindow{
			nil,
			{StartTS: ts(bounds[len(bounds)/4]), EndTS: ts(bounds[3*len(bounds)/4])}, // aligned
			{StartTS: ts(bounds[2]) + 1, EndTS: ts(bounds[len(bounds)-3]) - 1},       // not aligned
		}
		for _, motif := range []string{"M1", "M2", "M3", "M4"} {
			for _, delta := range []int64{300, 700} {
				m, err := mint.MotifByName(motif, mint.Timestamp(delta))
				if err != nil {
					t.Fatal(err)
				}
				for wi, w := range windows {
					all := oracleWindow(g, m, w)
					total := int64(len(all))
					offsets := append([]int64{0, 1, total / 3, total - 1, total, total + 2}, chunkOffsets(g, all, 4)...)
					for _, off := range offsets {
						if off < 0 {
							continue
						}
						for _, limit := range []int{1, 5, 200} {
							req := &EnumerateRequest{Dataset: name, Motif: motif, DeltaSeconds: delta,
								Limit: limit, PageToken: strconv.FormatInt(off, 10), RootWindow: w}
							resp, err := s.Enumerate(ctx, req, runctl.Budget{})
							if err != nil {
								t.Fatal(err)
							}
							checkPage(t, fmt.Sprintf("%s %s δ=%d window %d", name, motif, delta, wi), resp, all, off, limit)
						}
					}
				}
			}
		}
	}
}

// denseSeekServer serves one graph dense enough that a cold seek
// expands many thousand search-tree nodes before its page.
func denseSeekServer(t *testing.T, mutate func(*Config)) (*Server, *mint.Graph, [][]int32) {
	t.Helper()
	g := testutil.RandomGraph(rand.New(rand.NewSource(31)), 24, 1500, 500)
	cfg := Config{Loader: graphLoader(map[string]*mint.Graph{"d": g}), Workers: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	var all [][]int32
	mint.Enumerate(g, mint.M1(300), func(edges []int32) { all = append(all, append([]int32(nil), edges...)) })
	return New(cfg), g, all
}

// TestEnumerateSeekCutShortIsLoud: a deep page whose seek is stopped by
// a node budget or a passed deadline answers loudly truncated with no
// token, and the next unbudgeted page at the same offset is exact — the
// cut-short build stored nothing that could shift it.
func TestEnumerateSeekCutShortIsLoud(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget runctl.Budget
		reason string
	}{
		{"node budget", runctl.Budget{MaxNodes: 8000}, mint.StopNodeBudget.String()},
		{"deadline", runctl.Budget{Deadline: time.Now().Add(-time.Second)}, mint.StopDeadline.String()},
	} {
		s, _, all := denseSeekServer(t, nil)
		off := int64(len(all)) - 40
		req := &EnumerateRequest{Dataset: "d", Motif: "M1", DeltaSeconds: 300, Limit: 25, PageToken: strconv.FormatInt(off, 10)}
		resp, err := s.Enumerate(context.Background(), req, tc.budget)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Truncated || resp.StopReason != tc.reason || resp.NextPageToken != "" {
			t.Fatalf("%s: page truncated=%v reason %q token %q; want loud %q with no token",
				tc.name, resp.Truncated, resp.StopReason, resp.NextPageToken, tc.reason)
		}
		resp, err = s.Enumerate(context.Background(), req, runctl.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		checkPage(t, tc.name+": next unbudgeted page", resp, all, off, 25)
	}
}

// TestEnumerateSeekChaosIsLoud: with a fault plan firing during the
// index build (mackey.chunk, the counting stage's site) or on every
// engine site, each deep page is either exactly the oracle's or loudly
// truncated by the injected fault — never a shifted page.
func TestEnumerateSeekChaosIsLoud(t *testing.T) {
	for _, spec := range []string{"seed=4,error=0.02,sites=mackey.chunk", "seed=3,error=0.002,sites=mackey."} {
		plan, err := mint.ParseChaosPlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, _, all := denseSeekServer(t, func(cfg *Config) {
			cfg.Chaos = plan
			cfg.Breaker = BreakerConfig{Threshold: 1 << 30}
		})
		exact, loud := 0, 0
		for i := 0; i < 40; i++ {
			off := int64(len(all)) * int64(i) / 40
			req := &EnumerateRequest{Dataset: "d", Motif: "M1", DeltaSeconds: 300, Limit: 7, PageToken: strconv.FormatInt(off, 10)}
			resp, err := s.Enumerate(context.Background(), req, runctl.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Truncated {
				if resp.StopReason != mint.StopFaultInjected.String() || resp.NextPageToken != "" {
					t.Fatalf("%s offset %d: truncated by %q with token %q; want a loud injected fault", spec, off, resp.StopReason, resp.NextPageToken)
				}
				loud++
				continue
			}
			checkPage(t, spec, resp, all, off, 7)
			exact++
		}
		t.Logf("%s: %d exact, %d loudly truncated pages", spec, exact, loud)
		if exact == 0 || loud == 0 {
			t.Fatalf("%s served %d exact and %d truncated pages; the plan must leave both", spec, exact, loud)
		}
	}
}

// TestEnumerateSeekConcurrent: concurrent deep pages on one cold key,
// over HTTP, each equal the oracle's page.
func TestEnumerateSeekConcurrent(t *testing.T) {
	s, _, all := denseSeekServer(t, nil)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	ts := hs.URL
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off := int64(len(all)) * int64(8-i) / 9
			var resp EnumerateResponse
			status, _ := postJSON(t, ts+"/v1/enumerate", EnumerateRequest{Dataset: "d", Motif: "M1", DeltaSeconds: 300,
				Limit: 9, PageToken: strconv.FormatInt(off, 10)}, &resp)
			if status != http.StatusOK {
				t.Errorf("offset %d: status %d", off, status)
				return
			}
			want, token := wantPage(all, off, 9)
			got, _ := json.Marshal(resp.Matches)
			exp, _ := json.Marshal(want)
			if !bytes.Equal(got, exp) || resp.NextPageToken != token {
				t.Errorf("offset %d: page %s token %q, want %s token %q", off, got, resp.NextPageToken, exp, token)
			}
		}(i)
	}
	wg.Wait()
}

// TestEnumerateSeekAfterAppend: after an append to the live dataset, a
// deep page reflects the new graph (its chunk index went with the old
// registry entry), even when the new edges interleave the old ones in
// time.
func TestEnumerateSeekAfterAppend(t *testing.T) {
	s, ts := newIngestServer(t, t.TempDir(), nil)
	rng := rand.New(rand.NewSource(41))
	m := mint.M1(testDelta)
	seq := uint64(0)
	for round := 0; round < 3; round++ {
		seq++
		ingestBatch(t, ts.URL, seq, testutil.RandomGraph(rng, 10, 200, 2000).Edges)
		st, err := s.LiveStream()
		if err != nil {
			t.Fatal(err)
		}
		g, err := st.Graph()
		if err != nil {
			t.Fatal(err)
		}
		all := oracleWindow(g, m, nil)
		for _, off := range []int64{int64(len(all)) / 2, int64(len(all)) - 3} {
			var resp EnumerateResponse
			status, _ := postJSON(t, ts.URL+"/v1/enumerate", EnumerateRequest{Dataset: "live", Motif: "M1",
				DeltaSeconds: testDelta, Limit: 6, PageToken: strconv.FormatInt(off, 10)}, &resp)
			if status != http.StatusOK {
				t.Fatalf("round %d offset %d: status %d", round, off, status)
			}
			checkPage(t, fmt.Sprintf("round %d", round), &resp, all, off, 6)
		}
	}
}

// TestEnumerateSeekMetrics: the seek's stage histogram and counters,
// the registry load histogram and the WAL fsync histogram render on
// /metrics and pass the exposition lint.
func TestEnumerateSeekMetrics(t *testing.T) {
	reg := obs.New("mintd")
	_, ts := newIngestServer(t, t.TempDir(), func(cfg *Config) { cfg.Obs = reg })
	ingestBatch(t, ts.URL, 1, testutil.RandomGraph(rand.New(rand.NewSource(5)), 10, 200, 2000).Edges)
	for _, tok := range []string{"", "40", "40"} { // offset 0 never seeks; a build, then a hit
		if status, _ := postJSON(t, ts.URL+"/v1/enumerate", EnumerateRequest{Dataset: "g1", Motif: "M1",
			DeltaSeconds: testDelta, Limit: 3, PageToken: tok}, nil); status != http.StatusOK {
			t.Fatalf("enumerate status %d", status)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if _, err := obs.LintPrometheus(text); err != nil {
		t.Fatalf("/metrics fails exposition lint: %v", err)
	}
	for _, want := range []string{
		"# TYPE mintd_server_enumerate_seek_ns histogram",
		"mintd_server_enumerate_index_builds 1",
		"mintd_server_enumerate_index_hits 1",
		"mintd_server_enumerate_skipped_matches ",
		"# TYPE mintd_registry_load_ns histogram",
		"# TYPE mintd_edgelog_fsync_ns histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
