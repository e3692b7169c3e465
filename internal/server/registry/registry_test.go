package registry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mint/internal/obs"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

func testGraph(seed int64, edges int) *temporal.Graph {
	return testutil.RandomGraph(rand.New(rand.NewSource(seed)), 16, edges, 1000)
}

// TestSingleFlight: N concurrent Gets for one cold dataset trigger
// exactly one loader call, and everyone receives the same graph.
func TestSingleFlight(t *testing.T) {
	var loads atomic.Int64
	release := make(chan struct{})
	g0 := testGraph(1, 200)
	reg := New(Options{Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
		loads.Add(1)
		<-release // hold the flight open until every caller has joined
		return g0, nil
	}})

	const callers = 16
	var wg sync.WaitGroup
	got := make([]*temporal.Graph, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = reg.Get(context.Background(), "ds")
		}(i)
	}
	// Let the callers pile up on the single flight, then release it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times for one name, want 1", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got[i] != g0 {
			t.Fatalf("caller %d got a different graph pointer", i)
		}
	}
}

// TestLoadRetryBackoff: transient loader failures are retried (within
// MaxAttempts) before the flight lands.
func TestLoadRetryBackoff(t *testing.T) {
	var calls atomic.Int64
	reg := New(Options{
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
		Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
			if calls.Add(1) < 3 {
				return nil, errors.New("flaky NFS")
			}
			return testGraph(2, 100), nil
		},
	})
	if _, err := reg.Get(context.Background(), "ds"); err != nil {
		t.Fatalf("Get after retries: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("loader calls = %d, want 3", calls.Load())
	}
}

// TestLoadFailureNotCached: a flight that exhausts its attempts fails
// every waiter, but the next Get starts a fresh flight (no negative
// caching).
func TestLoadFailureNotCached(t *testing.T) {
	var calls atomic.Int64
	fail := atomic.Bool{}
	fail.Store(true)
	reg := New(Options{
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
			calls.Add(1)
			if fail.Load() {
				return nil, errors.New("down")
			}
			return testGraph(3, 100), nil
		},
	})
	if _, err := reg.Get(context.Background(), "ds"); err == nil {
		t.Fatal("Get succeeded while the loader was down")
	}
	if calls.Load() != 2 {
		t.Fatalf("loader calls = %d, want MaxAttempts=2", calls.Load())
	}
	fail.Store(false)
	if _, err := reg.Get(context.Background(), "ds"); err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	if reg.Len() != 1 {
		t.Fatalf("entries = %d, want 1", reg.Len())
	}
}

// TestLRUEviction: crossing the byte watermark evicts the
// least-recently-used graph, not the most recently touched one.
func TestLRUEviction(t *testing.T) {
	mkGraph := func(name string) *temporal.Graph { return testGraph(int64(len(name)), 400) }
	oneSize := GraphBytes(mkGraph("a"))
	reg := New(Options{
		MaxBytes: 2*oneSize + oneSize/2, // room for two graphs, not three
		Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
			return mkGraph(name), nil
		},
		Obs: obs.New(""),
	})
	ctx := context.Background()
	for _, name := range []string{"a", "b"} {
		if _, err := reg.Get(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU victim when "c" lands.
	if _, err := reg.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, n := range reg.Names() {
		names[n] = true
	}
	if !names["a"] || !names["c"] || names["b"] {
		t.Fatalf("cached = %v, want {a, c} (b evicted as LRU)", reg.Names())
	}
	if reg.Bytes() > 2*oneSize+oneSize/2 {
		t.Fatalf("resident bytes %d above watermark", reg.Bytes())
	}
}

// TestOversizeGraphStillCached: one graph above the watermark is cached
// anyway (reload-per-request would be strictly worse), and the next
// load evicts it.
func TestOversizeGraphStillCached(t *testing.T) {
	reg := New(Options{
		MaxBytes: 1, // everything is oversize
		Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
			return testGraph(9, 300), nil
		},
	})
	ctx := context.Background()
	if _, err := reg.Get(ctx, "big"); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 1 {
		t.Fatalf("oversize graph not cached: entries = %d", reg.Len())
	}
	if _, err := reg.Get(ctx, "big2"); err != nil {
		t.Fatal(err)
	}
	names := reg.Names()
	if len(names) != 1 || names[0] != "big2" {
		t.Fatalf("cached = %v, want just big2", names)
	}
}

// TestJoinerCancellation: a caller joining a slow flight honors its own
// context instead of waiting for the flight.
func TestJoinerCancellation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	reg := New(Options{Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
		<-release
		return testGraph(4, 100), nil
	}})
	go reg.Get(context.Background(), "slow") //nolint:errcheck // flight owner
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := reg.Get(ctx, "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("joiner err = %v, want DeadlineExceeded", err)
	}
}

// TestConcurrentDistinctNames: distinct datasets load concurrently and
// independently under racing callers.
func TestConcurrentDistinctNames(t *testing.T) {
	reg := New(Options{Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
		return testGraph(int64(len(name)), 100+10*len(name)), nil
	}})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				name := fmt.Sprintf("ds-%d", i)
				if _, err := reg.Get(context.Background(), name); err != nil {
					t.Errorf("Get(%s): %v", name, err)
				}
			}(i)
		}
	}
	wg.Wait()
	if reg.Len() != 8 {
		t.Fatalf("entries = %d, want 8", reg.Len())
	}
}

// TestCheckoutPinBlocksEviction is the evict-during-mine regression: a
// dataset checked out by an in-flight mining request must survive the
// LRU pass that a burst of other loads triggers, and become evictable
// again once released.
func TestCheckoutPinBlocksEviction(t *testing.T) {
	mkGraph := func(name string) *temporal.Graph { return testGraph(int64(len(name)), 400) }
	oneSize := GraphBytes(mkGraph("a"))
	reg := New(Options{
		MaxBytes: oneSize + oneSize/2, // room for one graph, not two
		Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
			return mkGraph(name), nil
		},
		Obs: obs.New(""),
	})
	ctx := context.Background()

	ga, release, err := reg.Checkout(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if ga == nil {
		t.Fatal("Checkout returned nil graph")
	}
	// "b" landing would normally evict LRU "a"; the pin must block it
	// (the watermark transiently overshoots instead of lying).
	if _, err := reg.Get(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	cached := map[string]bool{}
	for _, n := range reg.Names() {
		cached[n] = true
	}
	if !cached["a"] {
		t.Fatalf("pinned dataset evicted mid-mine; cached = %v", reg.Names())
	}

	// Released (idempotently), "a" is LRU and fair game again.
	release()
	release()
	if _, err := reg.Get(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	cached = map[string]bool{}
	for _, n := range reg.Names() {
		cached[n] = true
	}
	if cached["a"] {
		t.Fatalf("released dataset not evicted under pressure; cached = %v", reg.Names())
	}
	if cached["c"] != true {
		t.Fatalf("latest load missing; cached = %v", reg.Names())
	}
}

// TestCheckoutConcurrentMiningUnderPressure: many goroutines check out
// and "mine" a dataset while other loads churn the watermark; under
// -race this shakes the pin accounting, and every checkout must see a
// usable graph.
func TestCheckoutConcurrentMiningUnderPressure(t *testing.T) {
	mkGraph := func(name string) *temporal.Graph { return testGraph(int64(len(name)), 300) }
	reg := New(Options{
		MaxBytes: GraphBytes(mkGraph("hot")) + 1,
		Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
			return mkGraph(name), nil
		},
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				g, release, err := reg.Checkout(ctx, "hot")
				if err != nil {
					t.Errorf("checkout: %v", err)
					return
				}
				if g.NumEdges() == 0 {
					t.Error("checked-out graph is empty")
				}
				// Churn the cache while the pin is held.
				if _, err := reg.Get(ctx, fmt.Sprintf("cold-%d-%d", i, j)); err != nil {
					t.Errorf("churn load: %v", err)
				}
				release()
			}
		}(i)
	}
	wg.Wait()
}

// TestInvalidate: dropping a landed entry forces the next Get through
// the loader, and the resident-bytes estimate is settled.
func TestInvalidate(t *testing.T) {
	var loads atomic.Int64
	reg := New(Options{Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
		loads.Add(1)
		return testGraph(loads.Load(), 100), nil
	}})
	g1, err := reg.Get(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	if g2, _ := reg.Get(context.Background(), "live"); g2 != g1 {
		t.Fatal("second Get before invalidation must hit the cache")
	}
	if loads.Load() != 1 {
		t.Fatalf("loads = %d, want 1", loads.Load())
	}
	if !reg.Invalidate("live") {
		t.Fatal("Invalidate of a landed entry must report true")
	}
	if reg.Invalidate("live") {
		t.Fatal("Invalidate of a missing entry must report false")
	}
	if reg.Bytes() != 0 {
		t.Fatalf("resident bytes after invalidation = %d, want 0", reg.Bytes())
	}
	g3, err := reg.Get(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	if g3 == g1 {
		t.Fatal("Get after Invalidate returned the dropped graph")
	}
	if loads.Load() != 2 {
		t.Fatalf("loads = %d, want 2 after invalidation", loads.Load())
	}
}

// TestValidateHookDropsStaleEntries: the stale-read guard. A mutable
// dataset whose fingerprint moved under the cache must never be served
// from the stale entry — the hit path consults Validate and reloads on
// a false verdict. Pinned checkouts keep their snapshot.
func TestValidateHookDropsStaleEntries(t *testing.T) {
	var version atomic.Int64
	version.Store(1)
	graphs := map[int64]*temporal.Graph{}
	var mu sync.Mutex
	loader := func(ctx context.Context, name string) (*temporal.Graph, error) {
		mu.Lock()
		defer mu.Unlock()
		v := version.Load()
		if graphs[v] == nil {
			graphs[v] = testGraph(v, 50+int(v))
		}
		return graphs[v], nil
	}
	current := func(g *temporal.Graph) bool {
		mu.Lock()
		defer mu.Unlock()
		return g == graphs[version.Load()]
	}
	reg := New(Options{
		Loader:   loader,
		Validate: func(name string, g *temporal.Graph) bool { return current(g) },
	})

	g1, release, err := reg.Checkout(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	// Dataset moves while g1 is still pinned.
	version.Store(2)
	g2, err := reg.Get(context.Background(), "live")
	if err != nil {
		t.Fatal(err)
	}
	if g2 == g1 {
		t.Fatal("cache served the stale graph after the dataset moved")
	}
	if !current(g2) {
		t.Fatal("reload did not produce the current graph")
	}
	// The pinned checkout still holds its consistent (old) snapshot.
	if g1 == nil || g1 == g2 {
		t.Fatal("pinned snapshot must be the old graph")
	}
	release()
	// Stable dataset: the hook passes and the cache hit survives.
	if g3, _ := reg.Get(context.Background(), "live"); g3 != g2 {
		t.Fatal("Validate=true hit must serve the cached graph")
	}
}

type sizedSidecar int64

func (s sizedSidecar) Bytes() int64 { return int64(s) }

// TestSidecarLifetime: a sidecar is created once per (entry, key), its
// bytes count toward the watermark, it is dropped with its entry on
// Invalidate and on eviction, and a graph the cache no longer holds gets
// a fresh, unstored one.
func TestSidecarLifetime(t *testing.T) {
	graphs := map[string]*temporal.Graph{"a": testGraph(1, 200), "b": testGraph(2, 200)}
	reg := New(Options{
		Loader: func(_ context.Context, name string) (*temporal.Graph, error) {
			// A reload is a new graph value, as a live dataset's is.
			return temporal.MustNewGraph(graphs[name].Edges), nil
		},
		MaxBytes: GraphBytes(graphs["a"]) + 5000,
	})
	ctx := context.Background()
	ga, release, err := reg.Checkout(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	made := 0
	mk := func() Sidecar { made++; return sizedSidecar(1000) }
	first := reg.Sidecar("a", ga, "k", mk)
	if again := reg.Sidecar("a", ga, "k", mk); again != first || made != 1 {
		t.Fatalf("second lookup made %d sidecars", made)
	}
	if got, want := reg.Bytes(), GraphBytes(ga)+1000; got != want {
		t.Fatalf("registry bytes %d with a sidecar, want %d", got, want)
	}
	release()

	// Invalidate drops the entry and its sidecar: the reloaded graph
	// starts without one.
	reg.Invalidate("a")
	if reg.Bytes() != 0 {
		t.Fatalf("registry bytes %d after Invalidate, want 0", reg.Bytes())
	}
	ga2, err := reg.Get(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	reg.Sidecar("a", ga2, "k", mk)
	if made != 2 {
		t.Fatalf("a reloaded entry reused the invalidated entry's sidecar")
	}
	// The old graph is no longer cached: its sidecar is built, not stored.
	reg.Sidecar("a", ga, "k", mk)
	reg.Sidecar("a", ga, "k", mk)
	if made != 4 || reg.Bytes() != GraphBytes(ga2)+1000 {
		t.Fatalf("stale-graph sidecars: made %d, registry bytes %d", made, reg.Bytes())
	}

	// Loading b pushes past the watermark and evicts a with its sidecar.
	if _, err := reg.Get(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Bytes(), GraphBytes(graphs["b"]); got != want {
		t.Fatalf("registry bytes %d after evicting a, want %d", got, want)
	}
}
