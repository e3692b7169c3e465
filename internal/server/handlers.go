package server

// The worker's Backend and its wire shapes. Behind the Front's ladder
// (decode → admission → budget), every mining request runs dataset
// registry → breaker routing → engine, and answers with explicit
// exactness/degradation/truncation markers.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"mint"
	"mint/internal/edgelog"
	"mint/internal/mackey"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/server/registry"
)

// API request/response shapes -------------------------------------------

// CountRequest asks for a motif count on a registered dataset.
type CountRequest struct {
	// Dataset names a Table I dataset ("wiki-talk", "wt", ...).
	Dataset string `json:"dataset"`
	// Motif names an evaluation motif (M1..M4); MotifSpec, when set,
	// wins and carries the compact syntax ("A->B;B->C;C->A").
	Motif     string `json:"motif,omitempty"`
	MotifSpec string `json:"motif_spec,omitempty"`
	// Motifs / MotifSpecs switch the request to batch mode: the whole
	// set is counted in ONE co-mined run (same-δ motifs share a
	// traversal) under one shared budget, and the response carries one
	// PerMotif entry per requested motif — named motifs first, then
	// specs, in request order. Batch mode is exact-or-loud: there is no
	// sampling fallback, and it conflicts with Motif/MotifSpec and
	// Supervised (400).
	Motifs     []string `json:"motifs,omitempty"`
	MotifSpecs []string `json:"motif_specs,omitempty"`
	// DeltaSeconds is the motif window δ (0 = one hour).
	DeltaSeconds int64 `json:"delta_seconds,omitempty"`
	// TimeoutMS is the client's wall-clock budget; the server clamps it
	// to its own caps.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxMatches / MaxNodes tighten the derived budget further.
	MaxMatches int64 `json:"max_matches,omitempty"`
	MaxNodes   int64 `json:"max_nodes,omitempty"`
	// Priority is "low", "normal" (default), or "high" — the
	// load-shedding tier, not a scheduling weight.
	Priority string `json:"priority,omitempty"`
	// Supervised runs the fault-tolerant checkpointing miner; requires
	// the server to be configured with a checkpoint directory.
	Supervised bool `json:"supervised,omitempty"`
	// RootWindow restricts the count to motif instances whose root
	// (earliest) edge timestamp falls in this half-open window. The
	// scatter-gather coordinator uses it to assign each shard its owned
	// slice of the root space; restricted requests never degrade to the
	// sampling estimator (it cannot scope an estimate to a root window).
	RootWindow *TimeWindow `json:"root_window,omitempty"`
	// Explain asks for the inline span/decision tree (admission wait,
	// registry checkout, breaker verdict, per-shard fan-out, engine
	// spans) in the response.
	Explain bool `json:"explain,omitempty"`
	// ReturnTrace asks for the raw span fragment in the response — the
	// coordinator sets it on shard fan-out calls so shard-side spans can
	// be merged into one cross-process trace.
	ReturnTrace bool `json:"return_trace,omitempty"`
}

// TimeWindow is a half-open timestamp window [start_ts, end_ts) in
// dataset time units.
type TimeWindow struct {
	StartTS int64 `json:"start_ts"`
	EndTS   int64 `json:"end_ts"`
}

// PartialInfo marks a merged scatter-gather answer assembled without
// every shard: the count is the sum over the shards that responded — a
// loud lower bound, never a silently wrong total.
type PartialInfo struct {
	// MissingShards names the shards (by URL) whose owned root windows
	// are not included in the merged count.
	MissingShards []string `json:"missing_shards"`
	// Bound says which side the reported count bounds the true answer
	// from; summing exact/truncated shard counts always yields "lower".
	Bound string `json:"bound"`
}

// CountResponse is the answer. Exactly one of these holds: Exact
// (engine "exact"), Degraded (engine "presto", estimate), or Truncated
// (partial lower bound, stop reason named).
type CountResponse struct {
	Count    float64 `json:"count"`
	Exact    bool    `json:"exact"`
	Degraded bool    `json:"degraded"`
	// Engine names the producer: "exact", "presto", or "partial".
	Engine     string `json:"engine"`
	Truncated  bool   `json:"truncated,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
	// ExactPartial is the exact stage's partial count — always a valid
	// lower bound, even on degraded answers.
	ExactPartial int64 `json:"exact_partial"`
	// Checkpoint is the server-side checkpoint path of a supervised
	// request (resume evidence after a drain).
	Checkpoint string  `json:"checkpoint,omitempty"`
	WallMS     float64 `json:"wall_ms"`
	// Partial is set only on merged scatter-gather responses whose
	// fan-out lost shards; single-process servers never set it.
	Partial *PartialInfo `json:"partial,omitempty"`
	// TraceID is the request's distributed trace id (also echoed on the
	// X-Trace-Id header); feed it to GET /debug/trace/<id>.
	TraceID string `json:"trace_id,omitempty"`
	// Explain is the span/decision tree, present when the request asked
	// for it.
	Explain *obs.ExplainNode `json:"explain,omitempty"`
	// TraceFrag carries the raw spans when the request set return_trace
	// (coordinator fan-out); stripped from merged client responses.
	TraceFrag []obs.Span `json:"trace_frag,omitempty"`
	// PerMotif is present on batch responses only: one entry per
	// requested motif, in request order (Motifs then MotifSpecs). The
	// top-level Count is then the sum over entries.
	PerMotif []MotifCountEntry `json:"per_motif,omitempty"`
}

// MotifCountEntry is one motif's row in a batch count response. A
// truncated entry is an exact lower bound, loudly flagged with the stop
// reason — never a silently short count.
type MotifCountEntry struct {
	Motif      string `json:"motif"`
	Spec       string `json:"spec"`
	Count      int64  `json:"count"`
	Truncated  bool   `json:"truncated,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
}

// EnumerateRequest asks for concrete matches, paginated.
type EnumerateRequest struct {
	Dataset      string `json:"dataset"`
	Motif        string `json:"motif,omitempty"`
	MotifSpec    string `json:"motif_spec,omitempty"`
	DeltaSeconds int64  `json:"delta_seconds,omitempty"`
	TimeoutMS    int64  `json:"timeout_ms,omitempty"`
	Priority     string `json:"priority,omitempty"`
	// Limit is the page size (required; clamped to the server cap).
	Limit int `json:"limit"`
	// PageToken resumes a previous enumeration (opaque; returned as
	// NextPageToken). Enumeration order is deterministic, so a token is
	// stable across requests.
	PageToken string `json:"page_token,omitempty"`
	// RootWindow restricts enumeration to instances rooted in this
	// half-open window (scatter-gather fan-out; see CountRequest).
	RootWindow *TimeWindow `json:"root_window,omitempty"`
	// Explain / ReturnTrace: see CountRequest.
	Explain     bool `json:"explain,omitempty"`
	ReturnTrace bool `json:"return_trace,omitempty"`
}

// EnumerateResponse carries one page of matches (each match is the
// motif-ordered list of graph edge IDs).
type EnumerateResponse struct {
	Matches       [][]int32 `json:"matches"`
	NextPageToken string    `json:"next_page_token,omitempty"`
	Truncated     bool      `json:"truncated,omitempty"`
	StopReason    string    `json:"stop_reason,omitempty"`
	WallMS        float64   `json:"wall_ms"`
	// Partial: see CountResponse.Partial.
	Partial *PartialInfo `json:"partial,omitempty"`
	// TraceID / Explain / TraceFrag: see CountResponse.
	TraceID   string           `json:"trace_id,omitempty"`
	Explain   *obs.ExplainNode `json:"explain,omitempty"`
	TraceFrag []obs.Span       `json:"trace_frag,omitempty"`
}

// DatasetInfoRequest asks a worker to describe the data it serves under
// a dataset name — the coordinator's pre-merge identity check.
type DatasetInfoRequest struct {
	Dataset string `json:"dataset"`
}

// DatasetInfoResponse reports the dataset's shape, time extent, and
// identity fingerprint. Two workers whose fingerprints differ are not
// serving the same data, and a coordinator must refuse to merge their
// counts.
type DatasetInfoResponse struct {
	Dataset     string `json:"dataset"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	MinTS       int64  `json:"min_ts"`
	MaxTS       int64  `json:"max_ts"`
	Fingerprint string `json:"fingerprint"`
	// Live marks a mutable (ingest/replicated) dataset: its fingerprint
	// describes this instant, so coordinators must not cache it.
	Live bool `json:"live,omitempty"`
}

// ProfileRequest asks for the M1–M4 motif profile of a dataset.
type ProfileRequest struct {
	Dataset      string `json:"dataset"`
	DeltaSeconds int64  `json:"delta_seconds,omitempty"`
	TimeoutMS    int64  `json:"timeout_ms,omitempty"`
	Priority     string `json:"priority,omitempty"`
	// Explain: see CountRequest.
	Explain bool `json:"explain,omitempty"`
}

// ProfileEntry is one motif's row in a profile.
type ProfileEntry struct {
	Motif      string  `json:"motif"`
	Spec       string  `json:"spec"`
	Count      int64   `json:"count"`
	Density    float64 `json:"density"`
	Truncated  bool    `json:"truncated,omitempty"`
	StopReason string  `json:"stop_reason,omitempty"`
}

// ProfileResponse is the full profile.
type ProfileResponse struct {
	Profile []ProfileEntry   `json:"profile"`
	WallMS  float64          `json:"wall_ms"`
	TraceID string           `json:"trace_id,omitempty"`
	Explain *obs.ExplainNode `json:"explain,omitempty"`
	// Partial is set only on merged scatter-gather profiles whose
	// fan-out lost shards; every entry is then a loud lower bound.
	Partial *PartialInfo `json:"partial,omitempty"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error             string `json:"error"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// Routing ----------------------------------------------------------------

// routes registers the worker-only routes; the mining, health, and
// trace routes are the Front's.
func (s *Server) routes() {
	s.handle("POST /v1/edges", "edges", s.handleIngest)
	s.handle("POST /v1/standing", "standing", s.handleStandingRegister)
	s.handle("GET /v1/standing", "standing_list", s.handleStandingList)
	s.handle("DELETE /v1/standing/{name}", "standing_delete", s.handleStandingUnregister)
	s.handle("POST /v1/replication/pull", "replication_pull", s.handleReplicationPull)
	s.handle("GET /v1/replication/snapshot", "replication_snapshot", s.handleReplicationSnapshot)
	s.handle("GET /v1/replication/status", "replication_status", s.handleReplicationStatus)
	s.handle("POST /v1/promote", "promote", s.handlePromote)
}

// loadWorkload resolves the dataset and motif: 400 for caller
// mistakes, 503 for environment failures. The dataset comes back pinned
// in the registry (eviction cannot race the mining run); the caller
// must defer the returned release.
func (s *Server) loadWorkload(ctx context.Context, dataset, motifName, motifSpec string, deltaSeconds int64) (*mint.Graph, *mint.Motif, func(), error) {
	if dataset == "" {
		return nil, nil, nil, badRequest("dataset is required")
	}
	delta := mint.Timestamp(deltaSeconds)
	if delta <= 0 {
		delta = mint.DeltaHour
	}
	var m *mint.Motif
	var err error
	if motifSpec != "" {
		m, err = mint.ParseMotif("custom", delta, motifSpec)
	} else {
		name := motifName
		if name == "" {
			name = "M1"
		}
		m, err = mint.MotifByName(name, delta)
	}
	if err != nil {
		return nil, nil, nil, badRequest(err.Error())
	}
	rt := obs.ReqTraceFrom(ctx)
	sp := rt.Begin("registry.checkout", rt.RootID())
	sp.Set("dataset", dataset)
	g, release, err := s.checkout(ctx, dataset)
	sp.End()
	if err != nil {
		return nil, nil, nil, err
	}
	return g, m, release, nil
}

// checkout pins a dataset in the registry; an unknown name is the
// caller's mistake (400), any other load failure the environment's
// (503).
func (s *Server) checkout(ctx context.Context, dataset string) (*mint.Graph, func(), error) {
	g, release, err := s.data.Checkout(ctx, dataset)
	switch {
	case err == nil:
		return g, release, nil
	case errors.Is(err, ErrUnknownDataset):
		return nil, nil, badRequest(err.Error())
	default:
		return nil, nil, NewError(http.StatusServiceUnavailable, err.Error(), 5*time.Second)
	}
}

// rootWindowFor maps the wire-level root window onto the engine's.
func rootWindowFor(tw *TimeWindow) *mint.RootWindow {
	if tw == nil {
		return nil
	}
	return &mint.RootWindow{Start: mint.Timestamp(tw.StartTS), End: mint.Timestamp(tw.EndTS)}
}

// workloadKey is the breaker key: dataset × motif class. Named motifs
// class by name; custom specs by their canonical edge syntax, so two
// spellings of one motif share a breaker.
func workloadKey(dataset string, m *mint.Motif) string {
	if m.Name != "" && m.Name != "custom" {
		return dataset + "/" + m.Name
	}
	return dataset + "/custom:" + m.String()
}

// Backend ----------------------------------------------------------------

// Count mines one motif, or a motif set in one co-mined run (batch
// mode). A single motif runs the exact engine under three quarters of
// the wall headroom, leaving the rest for the estimator stage,
// mirroring the CLI fallback split.
func (s *Server) Count(ctx context.Context, req *CountRequest, full runctl.Budget) (*CountResponse, error) {
	exactBudget := full
	if now := time.Now(); !full.Deadline.IsZero() {
		exactBudget.Deadline = now.Add(runctl.TimeoutFrom(now, full) * 3 / 4)
	}
	if len(req.Motifs) > 0 || len(req.MotifSpecs) > 0 {
		// Batch mode: one co-mined run over the whole set. No sampling
		// fallback exists for a motif set, so the batch gets the full
		// budget — no estimator headroom to reserve.
		if req.Motif != "" || req.MotifSpec != "" {
			return nil, badRequest("motifs/motif_specs conflicts with motif/motif_spec")
		}
		if req.Supervised {
			return nil, badRequest("supervised batch requests are not supported")
		}
		return s.countBatch(ctx, req, full)
	}
	g, m, releaseData, err := s.loadWorkload(ctx, req.Dataset, req.Motif, req.MotifSpec, req.DeltaSeconds)
	if err != nil {
		return nil, err
	}
	defer releaseData()
	key := workloadKey(req.Dataset, m)
	roots := rootWindowFor(req.RootWindow)
	rt := obs.ReqTraceFrom(ctx)
	s.obs.Counter(obs.Labeled("server.workload.requests", "dataset", req.Dataset, "motif", m.Name)).Add(1)

	if req.Supervised {
		if roots != nil {
			return nil, badRequest("root_window is not supported with supervised")
		}
		return s.countSupervised(ctx, g, m, key, exactBudget)
	}

	decision := s.brk.Acquire(key)
	bsp := rt.Begin("breaker.decision", rt.RootID())
	bsp.Set("workload", key)
	bsp.Set("decision", decision.String())
	bsp.End()
	if decision == Degrade {
		return s.countDegraded(ctx, g, m, roots)
	}
	msp := rt.Begin("mine", rt.RootID())
	var tr *obs.Tracer
	if rt != nil {
		tr = obs.NewTracer(128)
	}
	res, err := mint.CountWithFallback(ctx, g, m, mint.FallbackConfig{
		Budget:  exactBudget,
		Workers: s.cfg.Workers,
		Chaos:   s.cfg.Chaos,
		Obs:     s.obs,
		Roots:   roots,
		Trace:   tr,
		TraceID: rt.TraceID(),
	})
	msp.Set("engine", res.Engine)
	msp.End()
	rt.ImportTracer(tr, msp.ID())
	// A panic or injected fault is breaker evidence even when the
	// estimator still salvaged an answer.
	s.brk.Record(key, err == nil && res.ExactResult.StopReason != mint.StopFaultInjected)
	if err != nil {
		// The exact engine died (worker panic). Serve the degraded path
		// rather than surfacing an opaque 500: the client gets an
		// explicit estimate or a clean 503.
		s.obs.Counter("server.exact_failed").Add(1)
		return s.countDegraded(ctx, g, m, roots)
	}
	return countResponse(res), nil
}

// countResponse maps a FallbackResult onto the wire contract.
func countResponse(res mint.FallbackResult) *CountResponse {
	out := &CountResponse{
		Count:        res.Count,
		Exact:        res.Exact,
		Degraded:     res.Approximate,
		Engine:       res.Engine,
		ExactPartial: res.ExactPartial,
	}
	if !res.Exact && !res.Approximate {
		out.Truncated = true
		out.StopReason = res.ExactResult.StopReason.String()
	}
	return out
}

// countDegraded is the breaker-open (or exact-engine-failed) path: the
// fallback ladder with a token exact budget, so the answer comes from
// PRESTO unless the workload is trivially small. Every success is
// marked "degraded" unless the tiny exact attempt actually completed.
// Root-windowed requests (scatter-gather fan-out) never reach PRESTO —
// the fallback layer returns the exact partial lower bound instead,
// because an estimate cannot be scoped to a root window.
func (s *Server) countDegraded(ctx context.Context, g *mint.Graph, m *mint.Motif, roots *mint.RootWindow) (*CountResponse, error) {
	s.obs.Counter("server.degraded_served").Add(1)
	rt := obs.ReqTraceFrom(ctx)
	sp := rt.Begin("mine.degraded", rt.RootID())
	res, err := mint.CountWithFallback(ctx, g, m, mint.FallbackConfig{
		// One checkpoint quantum of exact work: enough to answer tiny
		// workloads exactly, cheap enough to not matter when it truncates.
		Budget:  runctl.Budget{MaxNodes: runctl.CheckInterval},
		Workers: 1,
		Obs:     s.obs,
		Roots:   roots,
		TraceID: rt.TraceID(),
	})
	sp.Set("engine", res.Engine)
	sp.End()
	if err != nil {
		s.obs.Counter("server.degraded_failed").Add(1)
		return nil, fmt.Errorf("degraded path failed: %w", err)
	}
	return countResponse(res), nil
}

// batchMotifs resolves a batch request's motif list: named motifs
// first, then custom specs, all at the request δ — the deterministic
// order the PerMotif entries (and the coordinator's entrywise merge)
// are keyed on.
func batchMotifs(req *CountRequest) ([]*mint.Motif, error) {
	delta := mint.Timestamp(req.DeltaSeconds)
	if delta <= 0 {
		delta = mint.DeltaHour
	}
	motifs := make([]*mint.Motif, 0, len(req.Motifs)+len(req.MotifSpecs))
	for _, name := range req.Motifs {
		m, err := mint.MotifByName(name, delta)
		if err != nil {
			return nil, err
		}
		motifs = append(motifs, m)
	}
	for i, spec := range req.MotifSpecs {
		m, err := mint.ParseMotif(fmt.Sprintf("custom%d", i), delta, spec)
		if err != nil {
			return nil, err
		}
		motifs = append(motifs, m)
	}
	return motifs, nil
}

// countBatch serves a multi-motif count as ONE co-mined engine run
// under one shared budget. The contract is exact-or-loud: there is no
// PRESTO fallback for a motif set, so every entry is either the exact
// count or a truncated lower bound flagged with its stop reason — a
// fault-injected or panicked run answers 200 with every affected entry
// loudly truncated, never a silently short sum.
func (s *Server) countBatch(ctx context.Context, req *CountRequest, full runctl.Budget) (*CountResponse, error) {
	motifs, err := batchMotifs(req)
	if err != nil {
		return nil, badRequest(err.Error())
	}
	// Registry checkout only — the dummy motif name mirrors Profile;
	// the real set is resolved above.
	g, _, releaseData, err := s.loadWorkload(ctx, req.Dataset, "M1", "", req.DeltaSeconds)
	if err != nil {
		return nil, err
	}
	defer releaseData()
	rt := obs.ReqTraceFrom(ctx)
	for _, m := range motifs {
		s.obs.Counter(obs.Labeled("server.workload.requests", "dataset", req.Dataset, "motif", m.Name)).Add(1)
	}
	key := req.Dataset + "/batch:" + strconv.Itoa(len(motifs))
	decision := s.brk.Acquire(key)
	bsp := rt.Begin("breaker.decision", rt.RootID())
	bsp.Set("workload", key)
	bsp.Set("decision", decision.String())
	bsp.End()
	if decision == Degrade {
		// Like enumeration, a batch has no degraded engine: shed cleanly
		// while the breaker cools down.
		s.obs.Counter("server.batch_degraded_unavailable").Add(1)
		return nil, errors.New("workload breaker open and batch counting has no degraded mode")
	}
	msp := rt.Begin("mine.batch", rt.RootID())
	var tr *obs.Tracer
	if rt != nil {
		tr = obs.NewTracer(128)
	}
	res, err := mint.CountManyOpts(ctx, g, motifs, mint.BatchOptions{
		Workers: s.cfg.Workers,
		Obs:     s.obs,
		Chaos:   s.cfg.Chaos,
		Roots:   rootWindowFor(req.RootWindow),
		Trace:   tr,
		TraceID: rt.TraceID(),
	}, full)
	msp.Set("groups", strconv.Itoa(res.Groups))
	msp.End()
	rt.ImportTracer(tr, msp.ID())
	s.brk.Record(key, err == nil && res.StopReason != mint.StopFaultInjected)
	if err != nil && len(res.PerMotif) == 0 {
		// Setup failure (bad motif set) — nothing loud to serve.
		return nil, err
	}
	out := &CountResponse{
		Engine:   mint.EngineExact,
		Exact:    !res.Truncated,
		PerMotif: make([]MotifCountEntry, len(res.PerMotif)),
	}
	for i, pm := range res.PerMotif {
		e := MotifCountEntry{
			Motif:     pm.Motif.Name,
			Spec:      pm.Motif.String(),
			Count:     pm.Matches,
			Truncated: pm.Truncated,
		}
		if pm.Truncated {
			e.StopReason = pm.StopReason.String()
		}
		out.PerMotif[i] = e
		out.Count += float64(pm.Matches)
		out.ExactPartial += pm.Matches
	}
	if res.Truncated {
		out.Engine = mint.EnginePartial
		out.Exact = false
		out.Truncated = true
		out.StopReason = res.StopReason.String()
	}
	return out, nil
}

// countSupervised runs the checkpointing miner so a drain (or crash)
// mid-request leaves resumable evidence instead of lost work.
func (s *Server) countSupervised(ctx context.Context, g *mint.Graph, m *mint.Motif, key string, b runctl.Budget) (*CountResponse, error) {
	if s.cfg.CheckpointDir == "" {
		return nil, badRequest("supervised requests need a server checkpoint dir (-checkpoint-dir)")
	}
	rt := obs.ReqTraceFrom(ctx)
	path := filepath.Join(s.cfg.CheckpointDir,
		fmt.Sprintf("req-%d-%s.ckpt", s.reqSeq.Add(1), sanitizeKey(key)))
	sp := rt.Begin("mine.supervised", rt.RootID())
	res, err := mint.CountSupervisedCtx(ctx, g, m, s.cfg.Workers, b,
		mint.SupervisorConfig{CheckpointPath: path}, s.cfg.Chaos)
	sp.End()
	if err != nil {
		s.brk.Record(key, false)
		return nil, err
	}
	s.brk.Record(key, res.StopReason != mint.StopFaultInjected && len(res.Poisoned) == 0)
	out := &CountResponse{
		Count:        float64(res.Matches),
		Exact:        !res.Truncated,
		Engine:       mint.EngineExact,
		ExactPartial: res.Matches,
		Checkpoint:   path,
	}
	if res.Truncated {
		out.Engine = mint.EnginePartial
		out.Truncated = true
		out.StopReason = res.StopReason.String()
	}
	return out, nil
}

// Enumerate serves one page of matches. Pagination rides the
// deterministic chronological search order: the page is the matches
// [offset, offset+limit) of the walk over the window's roots, and the
// budget stops the walk once the page fills. A page at offset 0 walks
// from the window's first root. A deeper page seeks first (see seek), so
// it walks from at most one root chunk before its first match and skips
// only the remainder as it streams by.
func (s *Server) Enumerate(ctx context.Context, req *EnumerateRequest, full runctl.Budget) (*EnumerateResponse, error) {
	offset := int64(0)
	if req.PageToken != "" {
		var err error
		offset, err = strconv.ParseInt(req.PageToken, 10, 64)
		if err != nil || offset < 0 {
			return nil, badRequest("malformed page_token")
		}
	}
	g, m, releaseData, err := s.loadWorkload(ctx, req.Dataset, req.Motif, req.MotifSpec, req.DeltaSeconds)
	if err != nil {
		return nil, err
	}
	defer releaseData()
	key := workloadKey(req.Dataset, m)
	rt := obs.ReqTraceFrom(ctx)
	if s.brk.Acquire(key) == Degrade {
		// Enumeration has no sampling fallback: shed cleanly while the
		// breaker cools down rather than burn a slot on a likely panic.
		s.obs.Counter("server.enumerate_degraded_unavailable").Add(1)
		return nil, errors.New("workload breaker open and enumeration has no degraded mode")
	}

	lo, hi := mint.EdgeID(0), mint.EdgeID(g.NumEdges())
	if w := req.RootWindow; w != nil {
		lo, hi = g.EdgeRange(mint.Timestamp(w.StartTS), mint.Timestamp(w.EndTS))
	}
	sk := mackey.Seek{Start: lo}
	if offset > 0 {
		sk = s.seek(ctx, req.Dataset, g, m, full, lo, hi, offset)
		if sk.Result.Truncated {
			s.brk.Record(key, sk.Result.StopReason != mint.StopFaultInjected)
			return &EnumerateResponse{Matches: [][]int32{}, Truncated: true, StopReason: sk.Result.StopReason.String()}, nil
		}
	}

	b := full
	b.MaxMatches = sk.Skip + int64(req.Limit)
	if b.MaxNodes > 0 {
		b.MaxNodes = max(1, b.MaxNodes-sk.Result.Stats.NodesExpanded)
	}
	ctl := runctl.New(ctx, b)
	ctl.SetFaultPlan(s.cfg.Chaos)
	page := &pageProbe{
		skip:    sk.Skip,
		slab:    make([]int32, 0, req.Limit*m.NumEdges()),
		matches: make([][]int32, 0, req.Limit),
	}
	msp := rt.Begin("mine.enumerate", rt.RootID())
	res := mackey.MineCtx(ctx, g, m, mackey.Options{Probe: page, Ctl: ctl, Roots: &mackey.RootRange{Lo: sk.Start, Hi: hi}}, b)
	msp.End()
	s.brk.Record(key, res.StopReason != mint.StopFaultInjected)
	out := &EnumerateResponse{Matches: page.matches}
	switch {
	case res.Truncated && res.StopReason == mint.StopMatchBudget:
		// The page filled: not a truncation, just the next page.
		out.NextPageToken = strconv.FormatInt(offset+int64(len(page.matches)), 10)
	case res.Truncated:
		out.Truncated = true
		out.StopReason = res.StopReason.String()
	}
	return out, nil
}

// seek positions a deep page (offset > 0) in the enumeration of roots
// [lo, hi): it walks the dataset's chunk index for (motif, δ), counting
// the chunks it needs that are not yet in the index on the request's
// workers, under the request's budget and fault plan. The index is a
// registry sidecar, so it lives and dies with the loaded graph, and it
// stores only complete chunk counts: a truncated seek answers its page
// loudly truncated and leaves the index as exact as it was.
func (s *Server) seek(ctx context.Context, dataset string, g *mint.Graph, m *mint.Motif, full runctl.Budget, lo, hi mint.EdgeID, offset int64) mackey.Seek {
	rt := obs.ReqTraceFrom(ctx)
	sp := rt.Begin("enumerate.seek", rt.RootID())
	start := time.Now()
	idx := s.data.Sidecar(dataset, g, "chunk-index/"+m.String()+"@"+strconv.FormatInt(int64(m.Delta), 10),
		func() registry.Sidecar { return mackey.NewChunkIndex(g) }).(*mackey.ChunkIndex)
	b := full
	b.MaxMatches = 0 // the page's own budget; counting is not paging
	ctl := runctl.New(ctx, b)
	ctl.SetFaultPlan(s.cfg.Chaos)
	sk, _ := idx.Seek(g, m, mackey.Options{Workers: s.cfg.Workers, Ctl: ctl}, lo, hi, offset)
	s.obs.Histogram("server.enumerate.seek_ns").Observe(int64(time.Since(start)))
	switch {
	case sk.Counted > 0:
		s.obs.Counter("server.enumerate.index_builds").Add(1)
	case !sk.Result.Truncated:
		s.obs.Counter("server.enumerate.index_hits").Add(1)
	}
	sp.Set("chunks_counted", strconv.Itoa(sk.Counted))
	if sk.Result.Truncated {
		sp.Set("stop_reason", sk.Result.StopReason.String())
	} else {
		s.obs.Counter("server.enumerate.skipped_matches").Add(offset - sk.Skip)
		sp.Set("skipped", strconv.FormatInt(offset-sk.Skip, 10))
	}
	sp.End()
	return sk
}

// pageProbe collects one enumerate page: the first skip matches stream
// by, the next cap(matches) are copied into one slab and sub-sliced from
// it, one allocation per page rather than one per match.
type pageProbe struct {
	mackey.NopProbe
	skip    int64
	slab    []int32
	matches [][]int32
}

func (p *pageProbe) Match(edges []int32) {
	if p.skip > 0 {
		p.skip--
		return
	}
	if len(p.matches) == cap(p.matches) {
		return
	}
	n := len(p.slab)
	p.slab = append(p.slab, edges...)
	p.matches = append(p.matches, p.slab[n:len(p.slab):len(p.slab)])
}

// Profile counts M1–M4 on a dataset.
func (s *Server) Profile(ctx context.Context, req *ProfileRequest, full runctl.Budget) (*ProfileResponse, error) {
	g, _, releaseData, err := s.loadWorkload(ctx, req.Dataset, "M1", "", req.DeltaSeconds)
	if err != nil {
		return nil, err
	}
	defer releaseData()
	delta := mint.Timestamp(req.DeltaSeconds)
	if delta <= 0 {
		delta = mint.DeltaHour
	}
	rt := obs.ReqTraceFrom(ctx)
	msp := rt.Begin("mine.profile", rt.RootID())
	counts, err := mint.ProfileCtx(ctx, g, mint.EvaluationMotifs(delta), s.cfg.Workers, full)
	msp.End()
	if err != nil {
		return nil, err
	}
	out := &ProfileResponse{}
	for _, c := range counts {
		e := ProfileEntry{
			Motif:     c.Motif.Name,
			Spec:      c.Motif.String(),
			Count:     c.Count,
			Density:   c.Density,
			Truncated: c.Truncated,
		}
		if c.Truncated {
			e.StopReason = c.StopReason.String()
		}
		out.Profile = append(out.Profile, e)
	}
	return out, nil
}

// DatasetInfo reports the shape, time extent, and identity fingerprint
// of a served dataset. A scatter-gather coordinator calls it once per
// worker before fanning out: the span feeds the shard plan and the
// fingerprints must agree before any merge (two workers serving
// different data under one name must fail the fan-out loudly, not sum
// into a silently wrong count).
func (s *Server) DatasetInfo(ctx context.Context, req *DatasetInfoRequest) (*DatasetInfoResponse, error) {
	if req.Dataset == "" {
		return nil, badRequest("dataset is required")
	}
	g, release, err := s.checkout(ctx, req.Dataset)
	if err != nil {
		return nil, err
	}
	defer release()
	out := &DatasetInfoResponse{
		Dataset:     req.Dataset,
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		Fingerprint: s.fingerprintOf(req.Dataset, g),
		Live:        s.cfg.Ingest.Enabled() && req.Dataset == s.cfg.Ingest.Name(),
	}
	if n := g.NumEdges(); n > 0 {
		out.MinTS = int64(g.Edges[0].Time)
		out.MaxTS = int64(g.Edges[n-1].Time)
	}
	return out, nil
}

// Ready reports the admission queue and loaded datasets. A server with
// ingestion is not ready until WAL replay has rebuilt the live graph —
// and, as a follower, until fingerprint-verified catch-up: flipping
// ready earlier would route traffic to a dataset still missing durable
// edges.
func (s *Server) Ready(context.Context) (int, any) {
	out := map[string]any{
		"status":   "ready",
		"queued":   s.adm.queued.Load(),
		"datasets": s.data.Names(),
	}
	if !s.cfg.Ingest.Enabled() {
		return http.StatusOK, out
	}
	if s.liveReplaying.Load() {
		body := map[string]any{"status": "replaying"}
		// Replay progress: how far through the WAL the rebuild is, so an
		// operator watching readyz can tell stuck from slow.
		if p, ok := s.replayProg.Load().(edgelog.ReplayProgress); ok {
			body["progress"] = p
		}
		return http.StatusServiceUnavailable, body
	}
	st, err := s.liveStream()
	if err != nil {
		return http.StatusServiceUnavailable, map[string]any{"status": "ingest_failed", "error": err.Error()}
	}
	if _, following := s.followingSource(); following {
		f := s.currentFollower()
		if f == nil || !f.CaughtUp() {
			body := map[string]any{"status": "syncing"}
			if f != nil {
				body["replication"] = f.Status()
			}
			return http.StatusServiceUnavailable, body
		}
		out["replication"] = f.Status()
	}
	info := st.Info()
	s.liveMu.Lock()
	rec := s.liveRec
	s.liveMu.Unlock()
	out["ingest"] = map[string]any{
		"dataset":          s.cfg.Ingest.Name(),
		"seq":              info.Seq,
		"edges":            info.Edges,
		"segments":         info.Segments,
		"replayed_records": rec.Records,
		// replay_truncated means a crash tore the WAL tail and replay
		// recovered the longest valid prefix — loud, by contract.
		"replay_truncated": rec.Truncated,
	}
	return http.StatusOK, out
}

// sanitizeKey makes a workload key filesystem-safe for checkpoint names.
func sanitizeKey(key string) string {
	out := make([]rune, 0, len(key))
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
