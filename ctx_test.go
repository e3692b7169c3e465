package mint

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"mint/internal/testutil"
)

// denseTestGraph is big enough that every engine crosses several
// cancellation checkpoints.
func denseTestGraph() (*Graph, *Motif) {
	rng := rand.New(rand.NewSource(31))
	g := testutil.RandomGraph(rng, 24, 4000, 500)
	return g, M1(400)
}

func TestCtxShimsMatchBlockingAPI(t *testing.T) {
	g, m := denseTestGraph()
	want := Count(g, m)
	ctx := context.Background()

	res := CountCtx(ctx, g, m, Budget{})
	if res.Truncated || res.Matches != want {
		t.Fatalf("CountCtx = %d (truncated=%v), want %d", res.Matches, res.Truncated, want)
	}
	pres, err := CountParallelCtx(ctx, g, m, 4, Budget{})
	if err != nil || pres.Matches != want {
		t.Fatalf("CountParallelCtx = %d, %v; want %d", pres.Matches, err, want)
	}
	qres, err := CountTaskQueueCtx(ctx, g, m, 4, 16, Budget{})
	if err != nil || qres.Matches != want {
		t.Fatalf("CountTaskQueueCtx = %d, %v; want %d", qres.Matches, err, want)
	}
}

// TestEnumerateCtxMaxMatches: with a match budget of n, EnumerateCtx must
// stream exactly the first n matches of the deterministic search order.
func TestEnumerateCtxMaxMatches(t *testing.T) {
	g, m := denseTestGraph()
	var full [][]int32
	Enumerate(g, m, func(edges []int32) {
		cp := make([]int32, len(edges))
		copy(cp, edges)
		full = append(full, cp)
	})
	if len(full) < 10 {
		t.Fatalf("test graph too sparse: %d matches", len(full))
	}
	const n = 10
	var got [][]int32
	res := EnumerateCtx(context.Background(), g, m, Budget{MaxMatches: n}, func(edges []int32) {
		cp := make([]int32, len(edges))
		copy(cp, edges)
		got = append(got, cp)
	})
	if len(got) != n {
		t.Fatalf("streamed %d matches, want exactly %d", len(got), n)
	}
	if !res.Truncated || res.StopReason != StopMatchBudget {
		t.Fatalf("truncated=%v reason=%v, want MatchBudget", res.Truncated, res.StopReason)
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != full[i][j] {
				t.Fatalf("match %d differs from full enumeration: %v vs %v", i, got[i], full[i])
			}
		}
	}
}

func TestCountTaskQueueCtxTruncates(t *testing.T) {
	g, m := denseTestGraph()
	res, err := CountTaskQueueCtx(context.Background(), g, m, 4, 16,
		Budget{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.StopReason != StopDeadline {
		t.Fatalf("truncated=%v reason=%v, want DeadlineExceeded", res.Truncated, res.StopReason)
	}
}

func TestCountWithFallbackExactPath(t *testing.T) {
	g, m := denseTestGraph()
	want := Count(g, m)
	res, err := CountWithFallback(context.Background(), g, m, FallbackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Approximate {
		t.Fatalf("exact=%v approximate=%v, want exact", res.Exact, res.Approximate)
	}
	if int64(res.Count) != want || res.ExactPartial != want {
		t.Fatalf("Count = %v, ExactPartial = %d; want %d", res.Count, res.ExactPartial, want)
	}
}

// TestCountWithFallbackApproximatePath: an exact stage strangled by a tiny
// node budget must degrade to the PRESTO estimate, flagged approximate,
// with the exact partial count still reported as a lower bound.
func TestCountWithFallbackApproximatePath(t *testing.T) {
	g, m := denseTestGraph()
	full := Count(g, m)
	cfg := FallbackConfig{
		Budget:  Budget{MaxNodes: 1}, // force truncation almost immediately
		Workers: 4,
		Approx:  ApproxConfig{Windows: 8, C: 1.25, Seed: 3},
	}
	res, err := CountWithFallback(context.Background(), g, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("exact stage claimed success under a 1-node budget")
	}
	if !res.Approximate {
		t.Fatalf("fallback did not produce an approximate answer: %+v", res)
	}
	if !res.ExactResult.Truncated || res.ExactResult.StopReason != StopNodeBudget {
		t.Fatalf("exact stage: truncated=%v reason=%v, want NodeBudget",
			res.ExactResult.Truncated, res.ExactResult.StopReason)
	}
	if res.ExactPartial < 0 || res.ExactPartial > full {
		t.Fatalf("ExactPartial = %d outside [0, %d]", res.ExactPartial, full)
	}
	if res.ApproxResult.WindowsRun != 8 {
		t.Fatalf("estimator ran %d windows, want 8", res.ApproxResult.WindowsRun)
	}
	if res.Count <= 0 {
		t.Fatalf("estimate %v is not positive on a dense graph", res.Count)
	}
}

// TestCountWithFallbackEngineAttribution: every fallback outcome names
// the engine that answered and bumps the matching obs counter, so a
// serving layer can prove from metrics which path traffic took.
func TestCountWithFallbackEngineAttribution(t *testing.T) {
	g, m := denseTestGraph()
	reg := NewObsRegistry("fallback_test")

	res, err := CountWithFallback(context.Background(), g, m, FallbackConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineExact {
		t.Fatalf("Engine = %q, want %q", res.Engine, EngineExact)
	}
	if got := reg.Counter("fallback.exact").Value(); got != 1 {
		t.Fatalf("fallback.exact = %d, want 1", got)
	}

	cfg := FallbackConfig{
		Budget: Budget{MaxNodes: 1},
		Approx: ApproxConfig{Windows: 4, C: 1.25, Seed: 3},
		Obs:    reg,
	}
	res, err = CountWithFallback(context.Background(), g, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EnginePresto {
		t.Fatalf("Engine = %q, want %q", res.Engine, EnginePresto)
	}
	if got := reg.Counter("fallback.presto").Value(); got != 1 {
		t.Fatalf("fallback.presto = %d, want 1", got)
	}

	// A context that is already dead before the estimator can run a
	// single window leaves only the partial lower bound.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = CountWithFallback(ctx, g, m, FallbackConfig{Budget: Budget{MaxNodes: 1}, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EnginePartial {
		t.Fatalf("Engine = %q, want %q", res.Engine, EnginePartial)
	}
	if got := reg.Counter("fallback.partial").Value(); got != 1 {
		t.Fatalf("fallback.partial = %d, want 1", got)
	}
}

func TestEstimateApproxCtxCanceled(t *testing.T) {
	g, m := denseTestGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := EstimateApproxCtx(ctx, g, m, ApproxConfig{Windows: 8, C: 1.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.StopReason != StopCanceled {
		t.Fatalf("truncated=%v reason=%v, want Canceled", res.Truncated, res.StopReason)
	}
	if res.WindowsRun != 0 {
		t.Fatalf("pre-canceled estimator completed %d windows", res.WindowsRun)
	}
}

func TestSimulateCtxTruncates(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := testutil.RandomGraph(rng, 24, 1200, 500)
	m := M1(400)
	cfg := DefaultSimConfig()
	cfg.PEs = 8

	want, err := Simulate(g, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateCtx(context.Background(), g, m, cfg, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.Matches != want.Matches {
		t.Fatalf("unbounded SimulateCtx = %d (truncated=%v), want %d",
			res.Matches, res.Truncated, want.Matches)
	}

	tres, err := SimulateCtx(context.Background(), g, m, cfg,
		Budget{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if !tres.Truncated || tres.StopReason != StopDeadline {
		t.Fatalf("truncated=%v reason=%v, want DeadlineExceeded", tres.Truncated, tres.StopReason)
	}
	if tres.Matches > want.Matches {
		t.Fatalf("partial matches %d exceed full %d", tres.Matches, want.Matches)
	}
}

func TestSimulateGPUCtxTruncates(t *testing.T) {
	g, m := denseTestGraph()
	res, err := SimulateGPUCtx(context.Background(), g, m, DefaultGPUConfig(),
		Budget{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.StopReason != StopDeadline {
		t.Fatalf("truncated=%v reason=%v, want DeadlineExceeded", res.Truncated, res.StopReason)
	}
}

// TestCountSupervisedAndResumeCtx drives the public fault-tolerance API
// end to end: a supervised run matches the plain count; a budget-killed
// checkpointed run resumed via CountResumeCtx converges to the identical
// count; and a chaos plan with scheduled transient errors is retried
// away without truncation.
func TestCountSupervisedAndResumeCtx(t *testing.T) {
	g, m := denseTestGraph()
	want := Count(g, m)
	ctx := context.Background()

	res, err := CountSupervisedCtx(ctx, g, m, 4, Budget{}, SupervisorConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.Matches != want {
		t.Fatalf("CountSupervisedCtx = %d (truncated=%v), want %d", res.Matches, res.Truncated, want)
	}

	// Interrupt with a match budget, then resume without one.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	part, err := CountSupervisedCtx(ctx, g, m, 2, Budget{MaxMatches: want / 3},
		SupervisorConfig{CheckpointPath: path, CheckpointEvery: 1, CheckpointInterval: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Truncated {
		t.Fatalf("budgeted phase was not truncated (matches=%d)", part.Matches)
	}
	resumed, err := CountResumeCtx(ctx, g, m, 4, Budget{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Truncated || resumed.Matches != want {
		t.Fatalf("CountResumeCtx = %d (truncated=%v), want %d", resumed.Matches, resumed.Truncated, want)
	}

	// Transient chunk errors under a chaos plan: retried away, still exact.
	plan, err := ParseChaosPlan("seed=3,error=0.1,sites=mackey.chunk")
	if err != nil {
		t.Fatal(err)
	}
	chaotic, err := CountSupervisedCtx(ctx, g, m, 4, Budget{},
		SupervisorConfig{MaxAttempts: 6}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if chaotic.Truncated || chaotic.Matches != want {
		t.Fatalf("chaotic supervised run = %d (truncated=%v, poisoned=%d), want %d",
			chaotic.Matches, chaotic.Truncated, len(chaotic.Poisoned), want)
	}
}

// TestEnumerateCtxAllocsIndependentOfMatches: the visit slice is reused
// ("copy to retain"), so streaming a hundred times more matches costs no
// more allocations than streaming a few.
func TestEnumerateCtxAllocsIndependentOfMatches(t *testing.T) {
	g, m := denseTestGraph()
	seen := 0
	visit := func([]int32) { seen++ }
	run := func(n int64) float64 {
		return testing.AllocsPerRun(20, func() {
			EnumerateCtx(context.Background(), g, m, Budget{MaxMatches: n}, visit)
		})
	}
	few, many := run(10), run(1000)
	if seen < 20*1000 {
		t.Fatalf("fixture too sparse: %d matches streamed", seen)
	}
	// A little slack: under -race, sync.Pool drops pooled miner state at
	// random, so a run's fixed allocations vary.
	if many > few+8 {
		t.Fatalf("EnumerateCtx allocs: %.1f for 10 matches, %.1f for 1000", few, many)
	}
}
