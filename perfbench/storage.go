package main

// The storage-layer probe: the ingest writer's batches replayed into a
// shadow edge log and a shadow stream, outside any server, so the
// per-batch cost of each storage layer shows apart from the HTTP ack.

import (
	"context"
	"os"
	"path/filepath"
	"sort"

	"mint"
	"mint/internal/datasets"
	"mint/internal/edgelog"
	"mint/internal/temporal"
)

// ingestStream generates the writer's edge stream (time ordered).
func ingestStream(rec *Recorder) ([]mint.Edge, error) {
	spec, err := datasets.ByName("wiki-talk")
	if err != nil {
		return nil, err
	}
	sp := rec.Begin("datasets.generate", "setup", 0, "")
	sp.Set("dataset", "wiki-talk stream")
	g, err := datasets.Generate(spec, streamScale)
	sp.End()
	if err != nil {
		return nil, err
	}
	return g.Edges, nil
}

// window applies the stream's retention rule to a time-ordered prefix:
// edges older than the newest timestamp minus liveWindow are gone.
func window(sent []mint.Edge) []mint.Edge {
	if len(sent) == 0 {
		return nil
	}
	cutoff := sent[len(sent)-1].Time - mint.Timestamp(liveWindow)
	i := sort.Search(len(sent), func(i int) bool { return sent[i].Time >= cutoff })
	return sent[i:]
}

// firstWindowEnd is the index of the first edge past the stream's first
// full window.
func firstWindowEnd(stream []mint.Edge) int {
	end := stream[0].Time + mint.Timestamp(liveWindow)
	return sort.Search(len(stream), func(i int) bool { return stream[i].Time >= end })
}

// batchRange is one batch: stream[lo:hi].
type batchRange struct{ lo, hi int }

// probeStorage replays batches into a fresh edge log and a fresh stream
// under dir, with the primary's sync policy, window and standing
// queries, the stream first filled (untimed) with the window that ends
// at pos0. Spans: "edgelog.append" and "stream.append" per batch, and
// "temporal.newgraph" for the graph build of the live set after it.
func probeStorage(ctx context.Context, rec *Recorder, dir string, stream []mint.Edge, pos0 int, batches []batchRange, syncEvery int) error {
	if len(batches) > probeBatches {
		batches = batches[:probeBatches]
	}
	defer os.RemoveAll(dir)
	l, _, err := edgelog.Open(filepath.Join(dir, "log"), edgelog.Options{SyncEvery: syncEvery})
	if err != nil {
		return err
	}
	for i, b := range batches {
		sp := rec.Begin("edgelog.append", "probe", 0, "")
		_, _, err := l.Append("shadow", uint64(i+1), stream[b.lo:b.hi])
		sp.End()
		if err != nil {
			l.Close()
			return err
		}
	}
	if err := l.Close(); err != nil {
		return err
	}

	st, _, err := mint.OpenStream(filepath.Join(dir, "stream"),
		mint.StreamOptions{Window: mint.Timestamp(liveWindow), SyncEvery: syncEvery, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	if _, err := st.Append(ctx, "fill", 1, window(stream[:pos0])); err != nil {
		st.Close()
		return err
	}
	for _, m := range mint.EvaluationMotifs(mint.Timestamp(hour)) {
		if _, err := st.Register(ctx, m.Name, m); err != nil {
			st.Close()
			return err
		}
	}
	for i, b := range batches {
		sp := rec.Begin("stream.append", "probe", 0, "")
		_, err := st.Append(ctx, "shadow", uint64(i+1), stream[b.lo:b.hi])
		sp.End()
		if err == nil {
			sp = rec.Begin("temporal.newgraph", "probe", 0, "")
			_, err = temporal.NewGraph(window(stream[:b.hi]))
			sp.End()
		}
		if err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}
