// Package registry is mintd's shared dataset cache: a single-flight,
// memory-watermarked LRU of loaded temporal graphs.
//
// A serving process answers many requests against few graphs, and a
// SNAP load is orders of magnitude more expensive than a count on the
// scaled datasets — so the failure mode to defend against is a burst of
// requests for the same (not yet loaded) dataset each kicking off its
// own multi-second load and tripling memory. Get collapses concurrent
// loads of one name into a single flight, retries transient loader
// failures with capped backoff, and evicts least-recently-used graphs
// once the estimated resident bytes cross the watermark. Graphs are
// immutable, so eviction is just dropping the cache reference: requests
// already holding the *Graph keep mining it safely and the GC reclaims
// it when the last one finishes.
package registry

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/temporal"
)

// Loader produces the graph for a dataset name. It must be safe for
// concurrent use with distinct names; the registry guarantees it is
// never called concurrently for the same name.
type Loader func(ctx context.Context, name string) (*temporal.Graph, error)

// Options configures a Registry. The zero value (with a Loader) means:
// no memory watermark, 3 load attempts, 50ms..1s backoff, no metrics.
type Options struct {
	// Loader is required.
	Loader Loader
	// MaxBytes is the eviction watermark over the estimated resident
	// size of all cached graphs; 0 disables eviction. A single graph
	// larger than the watermark is still cached (the alternative is
	// reloading it per request, which is strictly worse).
	MaxBytes int64
	// MaxAttempts bounds loader tries per flight (< 1 means 3).
	MaxAttempts int
	// BackoffBase and BackoffCap shape the retry delay (defaults
	// 50ms / 1s), via runctl.Backoff.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Obs receives registry counters and gauges (may be nil).
	Obs *obs.Registry
	// Validate, when non-nil, is the stale-read guard for mutable
	// datasets: it is consulted on every cache hit, and a false verdict
	// drops the entry and reloads through the Loader instead of serving
	// the cached graph. Immutable datasets should return true
	// unconditionally (the default when Validate is nil). Checkouts that
	// are already pinned keep their graph — a pin is a consistent
	// snapshot, not a subscription — the guard only prevents NEW
	// checkouts from seeing a graph the underlying dataset has moved
	// past.
	Validate func(name string, g *temporal.Graph) bool
}

func (o Options) normalized() Options {
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = time.Second
	}
	return o
}

// entry is one cached (or in-flight) dataset.
type entry struct {
	name  string
	ready chan struct{} // closed when the flight lands
	g     *temporal.Graph
	err   error
	bytes int64
	// lastUse orders eviction; guarded by the registry mutex.
	lastUse int64
	// pins counts Checkout holders actively mining this dataset; guarded
	// by the registry mutex. A pinned entry is never evicted: the graph
	// is resident anyway (the miner holds it), so evicting would only
	// make the watermark accounting lie and force a pointless reload for
	// the next request.
	pins int
	// sidecars holds derived per-graph state (Sidecar), charged to bytes
	// and dropped with the entry; guarded by the registry mutex.
	sidecars map[string]Sidecar
}

// Sidecar is derived state cached alongside one loaded graph — a
// seek index, say. It lives exactly as long as the graph's entry:
// eviction, invalidation and stale reloads drop it with the graph, and
// its Bytes count toward the watermark. A sidecar must not hold the
// graph itself, so a dropped entry pins nothing.
type Sidecar interface {
	// Bytes is the sidecar's resident size; it must not change.
	Bytes() int64
}

// maxSidecars bounds the sidecars one entry keeps. Keys come from
// request parameters (motif spec, δ), so without a bound a client could
// grow an entry without limit when no watermark is set.
const maxSidecars = 64

// Registry is the cache. All methods are safe for concurrent use.
type Registry struct {
	opts Options

	mu      sync.Mutex
	entries map[string]*entry
	bytes   int64 // resident estimate over landed entries
	useSeq  int64 // logical clock for LRU ordering
}

// New builds a Registry; it panics without a Loader (a registry that
// cannot load is a programming error, not a runtime condition).
func New(opts Options) *Registry {
	if opts.Loader == nil {
		panic("registry: Options.Loader is required")
	}
	// Export the configured watermark once: together with the live
	// registry.bytes gauge it makes cache pressure readable off /metrics
	// (bytes/max_bytes) without knowing the server flags.
	opts.Obs.Gauge("registry.max_bytes").Set(opts.MaxBytes)
	return &Registry{opts: opts.normalized(), entries: map[string]*entry{}}
}

// GraphBytes estimates the resident size of a loaded graph: the edge
// array plus the per-node in/out adjacency index lists and their slice
// headers. It deliberately overestimates slightly (allocator slack)
// rather than under — the watermark is a protection limit.
func GraphBytes(g *temporal.Graph) int64 {
	if g == nil {
		return 0
	}
	const edgeSize = 16 // Src, Dst int32 + Time int64
	const sliceHeader = 24
	e := int64(g.NumEdges())
	n := int64(g.NumNodes())
	// Every edge appears once in an out-list and once in an in-list.
	return e*edgeSize + 2*e*4 + 2*n*sliceHeader
}

// Get returns the graph for name, loading it (once) if necessary.
// Concurrent calls for the same name share one flight: one caller runs
// the loader with retry/backoff, the rest wait on the flight (or their
// own context). A failed flight is not negatively cached — the next Get
// starts a fresh one.
func (r *Registry) Get(ctx context.Context, name string) (*temporal.Graph, error) {
	g, _, err := r.get(ctx, name)
	return g, err
}

// Checkout is Get plus a pin: the returned release func must be called
// when the caller stops mining the graph (defer it). While pinned the
// entry is exempt from LRU eviction, so a burst of loads for other
// datasets cannot push an actively-mined dataset out from under its
// in-flight runs — the graph itself is immutable and GC-safe either
// way, but an evicted-while-mined entry makes the resident-bytes
// watermark undercount reality and forces the next request for the same
// name to reload a graph that is still in memory. Release is idempotent.
func (r *Registry) Checkout(ctx context.Context, name string) (*temporal.Graph, func(), error) {
	g, e, err := r.get(ctx, name)
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	pinned := r.entries[name] == e
	if pinned {
		e.pins++
	}
	r.mu.Unlock()
	var once sync.Once
	release := func() {
		once.Do(func() {
			if !pinned {
				return
			}
			r.mu.Lock()
			e.pins--
			// Unpinning may reopen eviction room the watermark has been
			// waiting for; settle it now rather than on the next load.
			r.evictLocked(nil)
			r.mu.Unlock()
		})
	}
	return g, release, nil
}

// get resolves name to its graph and cache entry.
func (r *Registry) get(ctx context.Context, name string) (*temporal.Graph, *entry, error) {
	o := r.opts.Obs
	for {
		r.mu.Lock()
		e, ok := r.entries[name]
		if ok {
			select {
			case <-e.ready:
				// Landed: either a cached success or a failure not yet
				// removed by its flight owner.
				if e.err == nil {
					if r.opts.Validate != nil && !r.opts.Validate(name, e.g) {
						// The dataset moved under the cache (a live stream
						// accepted an append). Drop the entry and fall
						// through to a fresh load; pinned checkouts keep
						// their (immutable) snapshot safely.
						r.dropLocked(e)
						r.mu.Unlock()
						o.Counter("registry.stale_dropped").Add(1)
						continue
					}
					r.useSeq++
					e.lastUse = r.useSeq
					r.mu.Unlock()
					o.Counter("registry.hit").Add(1)
					return e.g, e, nil
				}
				// A failed entry is being torn down; retry the lookup.
				delete(r.entries, name)
				r.mu.Unlock()
				continue
			default:
			}
			r.mu.Unlock()
			// In flight: join it.
			o.Counter("registry.join").Add(1)
			select {
			case <-e.ready:
				if e.err != nil {
					return nil, nil, e.err
				}
				r.touch(e)
				return e.g, e, nil
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}
		e = &entry{name: name, ready: make(chan struct{})}
		r.entries[name] = e
		r.mu.Unlock()
		g, err := r.load(ctx, e)
		return g, e, err
	}
}

// touch refreshes an entry's LRU position.
func (r *Registry) touch(e *entry) {
	r.mu.Lock()
	r.useSeq++
	e.lastUse = r.useSeq
	r.mu.Unlock()
}

// load runs the flight for e: loader with retry/backoff, then publish
// (close ready) and evict over-watermark entries, or tear the entry
// down on failure so later Gets can retry.
func (r *Registry) load(ctx context.Context, e *entry) (*temporal.Graph, error) {
	o := r.opts.Obs
	o.Counter("registry.load").Add(1)
	start := time.Now()
	var g *temporal.Graph
	var err error
	for attempt := 0; attempt < r.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			o.Counter("registry.load_retry").Add(1)
			select {
			case <-time.After(runctl.Backoff(attempt-1, r.opts.BackoffBase, r.opts.BackoffCap)):
			case <-ctx.Done():
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			break
		}
		g, err = r.opts.Loader(ctx, e.name)
		if err == nil {
			break
		}
	}
	r.mu.Lock()
	if err != nil {
		e.err = fmt.Errorf("registry: loading %q: %w", e.name, err)
		delete(r.entries, e.name)
		close(e.ready)
		r.mu.Unlock()
		o.Counter("registry.load_fail").Add(1)
		return nil, e.err
	}
	// Load and parse time of a landed flight, retries and backoff
	// included: what the requests that joined it waited for.
	o.Histogram("registry.load_ns").Observe(int64(time.Since(start)))
	e.g = g
	e.bytes = GraphBytes(g)
	r.useSeq++
	e.lastUse = r.useSeq
	r.bytes += e.bytes
	close(e.ready)
	r.evictLocked(e)
	n := len(r.entries)
	b := r.bytes
	r.mu.Unlock()
	o.Gauge("registry.entries").Set(int64(n))
	o.Gauge("registry.bytes").Set(b)
	return g, nil
}

// evictLocked drops least-recently-used landed entries (never keep, the
// entry just loaded) until the resident estimate fits the watermark.
// In-flight entries are skipped: evicting a flight would strand its
// joiners. Pinned entries (Checkout holders still mining) are skipped
// too — the watermark is a protection limit and may be transiently
// exceeded while every resident graph is actively in use.
func (r *Registry) evictLocked(keep *entry) {
	if r.opts.MaxBytes <= 0 {
		return
	}
	for r.bytes > r.opts.MaxBytes {
		var victim *entry
		for _, e := range r.entries {
			if e == keep || e.pins > 0 || !landed(e) {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(r.entries, victim.name)
		r.bytes -= victim.bytes
		r.opts.Obs.Counter("registry.evict").Add(1)
		// Keep the live gauges honest on the eviction path too — load()
		// only refreshes them after its own evict pass, but Checkout
		// releases also evict.
		r.opts.Obs.Gauge("registry.entries").Set(int64(len(r.entries)))
		r.opts.Obs.Gauge("registry.bytes").Set(r.bytes)
	}
}

// dropLocked removes a landed entry from the cache, settling the
// resident-bytes estimate and gauges. Holders of the graph pointer are
// unaffected (graphs are immutable); the next Get loads fresh.
func (r *Registry) dropLocked(e *entry) {
	if cur, ok := r.entries[e.name]; !ok || cur != e {
		return
	}
	delete(r.entries, e.name)
	r.bytes -= e.bytes
	r.opts.Obs.Gauge("registry.entries").Set(int64(len(r.entries)))
	r.opts.Obs.Gauge("registry.bytes").Set(r.bytes)
}

// Invalidate removes name from the cache if its load has landed, so the
// next Get reloads through the Loader. It reports whether an entry was
// dropped. An in-flight load is left alone — its flight owner still
// needs the entry to publish into, and the data it is loading is as
// fresh as a reload would be. Mutable-dataset serving (the live ingest
// stream) calls this on every accepted append; the Options.Validate
// hook is the belt to this suspender for entries that slip through.
func (r *Registry) Invalidate(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok || !landed(e) {
		return false
	}
	r.dropLocked(e)
	r.opts.Obs.Counter("registry.invalidated").Add(1)
	return true
}

func landed(e *entry) bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// Sidecar returns the sidecar stored under key on the entry that caches
// g as name, creating it with mk on first use. When g is not (or no
// longer) the cached graph for name — evicted, invalidated, reloaded —
// or the entry is full, mk's result is returned without being stored:
// the caller uses it for one request and the GC takes it after. mk runs
// outside the registry lock; concurrent first uses may each run it, and
// all but one result are discarded.
func (r *Registry) Sidecar(name string, g *temporal.Graph, key string, mk func() Sidecar) Sidecar {
	r.mu.Lock()
	e := r.entries[name]
	if e == nil || !landed(e) || e.g != g {
		r.mu.Unlock()
		return mk()
	}
	if sc, ok := e.sidecars[key]; ok {
		r.mu.Unlock()
		return sc
	}
	r.mu.Unlock()
	sc := mk()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries[name] != e || len(e.sidecars) >= maxSidecars {
		return sc
	}
	if cur, ok := e.sidecars[key]; ok {
		return cur
	}
	if e.sidecars == nil {
		e.sidecars = map[string]Sidecar{}
	}
	e.sidecars[key] = sc
	e.bytes += sc.Bytes()
	r.bytes += sc.Bytes()
	r.evictLocked(e)
	r.opts.Obs.Gauge("registry.entries").Set(int64(len(r.entries)))
	r.opts.Obs.Gauge("registry.bytes").Set(r.bytes)
	return sc
}

// Len returns the number of cached or in-flight datasets.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Bytes returns the current resident-size estimate of landed entries.
func (r *Registry) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// Names returns the cached dataset names (landed flights only), for
// readiness reporting. Order is unspecified.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.entries))
	for name, e := range r.entries {
		if landed(e) && e.err == nil {
			out = append(out, name)
		}
	}
	return out
}
