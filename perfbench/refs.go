package main

// Reference answers, computed outside the timed window by engines other
// than the served path: the brute-force oracle where it is fast enough
// (email-eu, whole graph), otherwise the sequential Baseline mackey
// miner (no pooling, no window-cached searches). The task-queue miner
// is not used: it has an open seeding race.

import (
	"fmt"
	"sync"

	"mint"
	"mint/internal/datasets"
	"mint/internal/mackey"
	"mint/internal/oracle"
	"mint/internal/server"
	"mint/internal/temporal"
)

// Refs memoizes reference counts per (dataset, motif, δ, root window).
type Refs struct {
	mu     sync.Mutex
	graphs map[string]*temporal.Graph
	counts map[string]int64
}

func newRefs() *Refs {
	return &Refs{graphs: map[string]*temporal.Graph{}, counts: map[string]int64{}}
}

// graph generates (once) the benchmark's own copy of a dataset.
func (r *Refs) graph(name string) (*temporal.Graph, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.graphs[name]; ok {
		return g, nil
	}
	spec, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	g, err := datasets.Generate(spec, scale)
	if err != nil {
		return nil, err
	}
	r.graphs[name] = g
	return g, nil
}

// drop releases the generated graphs (counts stay), so they do not
// count toward the servers' heap.
func (r *Refs) drop() {
	r.mu.Lock()
	r.graphs = map[string]*temporal.Graph{}
	r.mu.Unlock()
}

// rootRange maps a timestamp window onto root edge indices.
func rootRange(g *temporal.Graph, w *server.TimeWindow) *mackey.RootRange {
	if w == nil {
		return nil
	}
	lo, hi := g.EdgeRange(temporal.Timestamp(w.StartTS), temporal.Timestamp(w.EndTS))
	return &mackey.RootRange{Lo: lo, Hi: hi}
}

// Count returns the reference count of motif in dataset at δ, rooted in
// w (nil = whole graph).
func (r *Refs) Count(dataset, motif string, delta int64, w *server.TimeWindow) (int64, error) {
	key := fmt.Sprintf("%s/%s/%d", dataset, motif, delta)
	if w != nil {
		key += fmt.Sprintf("/%d-%d", w.StartTS, w.EndTS)
	}
	r.mu.Lock()
	c, ok := r.counts[key]
	r.mu.Unlock()
	if ok {
		return c, nil
	}
	g, err := r.graph(dataset)
	if err != nil {
		return 0, err
	}
	m, err := mint.MotifByName(motif, mint.Timestamp(delta))
	if err != nil {
		return 0, err
	}
	if dataset == "email-eu" && w == nil {
		c = oracle.Count(g, m)
	} else {
		c = mackey.Mine(g, m, mackey.Options{Baseline: true, Roots: rootRange(g, w)}).Matches
	}
	r.mu.Lock()
	r.counts[key] = c
	r.mu.Unlock()
	return c, nil
}

// collect is a mackey.Probe that keeps every match.
type collect struct{ matches [][]int32 }

func (c *collect) NeighborhoodAccess(int32, bool, int, int, int32) {}
func (c *collect) Match(edges []int32)                             { c.matches = append(c.matches, append([]int32(nil), edges...)) }

// Enumerate returns every match of motif in dataset at δ in the
// chronological search order the served pages follow.
func (r *Refs) Enumerate(dataset, motif string, delta int64) ([][]int32, error) {
	g, err := r.graph(dataset)
	if err != nil {
		return nil, err
	}
	m, err := mint.MotifByName(motif, mint.Timestamp(delta))
	if err != nil {
		return nil, err
	}
	p := &collect{}
	mackey.Mine(g, m, mackey.Options{Baseline: true, Probe: p})
	return p.matches, nil
}
