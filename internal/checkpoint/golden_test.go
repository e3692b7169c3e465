package checkpoint_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mint/internal/checkpoint"
	"mint/internal/edgelog"
	"mint/internal/shard"
	"mint/internal/temporal"
)

// goldenEdges are the fixed inputs of TestFingerprintGoldenDigests.
func goldenEdges(name string) []temporal.Edge {
	switch name {
	case "empty":
		return nil
	case "one":
		return []temporal.Edge{{Src: 3, Dst: 7, Time: 42}}
	case "negative":
		return []temporal.Edge{{Src: 0, Dst: 1, Time: -9000000000}, {Src: 1, Dst: 0, Time: -1}, {Src: 2, Dst: 1, Time: 0}}
	case "seeded1k":
		rng := rand.New(rand.NewSource(13))
		edges := make([]temporal.Edge, 1000)
		ts := temporal.Timestamp(-5000)
		for i := range edges {
			ts += temporal.Timestamp(rng.Intn(7))
			edges[i] = temporal.Edge{Src: temporal.NodeID(rng.Intn(200)), Dst: temporal.NodeID(rng.Intn(200)), Time: ts}
		}
		return edges
	}
	panic("unknown golden input " + name)
}

// TestFingerprintGoldenDigests pins the three identity digests to values
// recorded before they were computed by streaming: snapshot Load
// recomputes EdgesFingerprint and refuses a mismatch, and coordinators
// compare shard.Fingerprint across workers, so a digest that drifts
// makes every snapshot on disk unreadable and splits mixed-version
// deployments. HashInts is fed the same edges flattened to
// (src, dst, time) triples.
func TestFingerprintGoldenDigests(t *testing.T) {
	golden := []struct {
		name, edgelog, graph, ints string
	}{
		{"empty", "edgelog/a8c7f832281a39c5", "graph/88201fb960ff6465", "cbf29ce484222325"},
		{"one", "edgelog/675268482880f3ea", "graph/e229095cf7ba0542", "32a823a6297ebd8b"},
		{"negative", "edgelog/aa4eb90fe8f8758a", "graph/957fa47c1a809bf9", "a83e90494a00f399"},
		{"seeded1k", "edgelog/8d5a009ac05cd8fc", "graph/dcdc648cc95e6c14", "3feadd2aff4ad185"},
	}
	for _, tc := range golden {
		edges := goldenEdges(tc.name)
		if got := edgelog.EdgesFingerprint(edges); got != tc.edgelog {
			t.Errorf("%s: EdgesFingerprint = %s, want %s", tc.name, got, tc.edgelog)
		}
		if got := shard.Fingerprint(temporal.MustNewGraph(edges)); got != tc.graph {
			t.Errorf("%s: shard.Fingerprint = %s, want %s", tc.name, got, tc.graph)
		}
		var ints []int64
		for _, e := range edges {
			ints = append(ints, int64(e.Src), int64(e.Dst), int64(e.Time))
		}
		if got := fmt.Sprintf("%016x", checkpoint.HashInts(ints)); got != tc.ints {
			t.Errorf("%s: HashInts = %s, want %s", tc.name, got, tc.ints)
		}
	}
}

// TestFingerprintsHashInPlace checks that both edge fingerprints hash
// the edges where they lie: what a call allocates is the returned
// string's few bytes, not a flattened copy of the edge list.
func TestFingerprintsHashInPlace(t *testing.T) {
	edges := goldenEdges("seeded1k")
	g := temporal.MustNewGraph(edges)
	for name, f := range map[string]func(){
		"edgelog": func() { edgelog.EdgesFingerprint(edges) },
		"graph":   func() { shard.Fingerprint(g) },
	} {
		const calls = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 512 {
			t.Errorf("%s fingerprint of %d edges allocated %d bytes per call, want <= 512", name, len(edges), perCall)
		}
	}
}
