// Package gather is mintd's scatter-gather coordinator: an HTTP facade
// that partitions one mining request into δ-aware per-shard root
// windows (package shard), fans it out over worker mintd processes,
// and merges the answers under the same response contract the single
// process serves — every merged answer is exact, loudly degraded,
// loudly truncated, or a clean 429/503, never silently wrong.
//
// The merge needs no dedup step: shard i's request carries the owned
// root window [b_i, b_i+1) and the engine's RootWindow restriction
// guarantees disjoint instance sets, so counts are plain sums and
// concatenated enumeration pages preserve the global chronological
// order. Failure semantics are the point of the layer:
//
//   - Range assignment is fixed 1:1 over the configured shard list, so
//     a dead or breaker-open shard means its root window goes unmined
//     and the merged response says so: Truncated with stop reason
//     "shard_unavailable" and Partial naming the missing shards — a
//     loud lower bound, never a silently short total.
//   - Shard calls get bounded retries with capped backoff, and (when
//     HedgeAfter is set) a hedged duplicate once the first copy looks
//     like a straggler; first response wins.
//   - Per-shard circuit breakers stop the coordinator from burning its
//     deadline on a shard that has been failing; an open breaker is a
//     missing shard, reported like any other.
//   - Identity before arithmetic: the coordinator fingerprints every
//     shard (the /v1/datasetinfo endpoint) and refuses to merge counts
//     from shards whose fingerprints disagree — two workers serving
//     different data under one dataset name must be a 502, not a sum.
//   - Retry-After hints stay honest under shard overload: a shed at
//     the coordinator reports the max of its own estimate and the
//     worst Retry-After its shards recently returned.
package gather

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mint"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/server"
	"mint/internal/shard"
)

// StopShardUnavailable is the merged stop reason when one or more
// shards' owned root windows could not be mined.
const StopShardUnavailable = "shard_unavailable"

// maxResponseBytes bounds one shard response body (an enumerate page of
// the maximum limit fits comfortably).
const maxResponseBytes = 64 << 20

// Config assembles a Coordinator. Zero fields take defaults noted
// per-field.
type Config struct {
	// Shards are the worker base URLs ("http://host:port"). Order is
	// load-bearing: plan range i is always served by Shards[i], so a
	// stable shard list gives deterministic assignment across restarts.
	// An entry may be a replica SET — '|'-separated alternates
	// ("http://a1|http://a2") replicating the same data (WAL shipping,
	// mintd -follow). The first member is the preferred primary; on its
	// failure the fan-out fails over to a member whose current
	// fingerprint matches the plan's, so a replicated range survives
	// process death with exact answers. Only when an entire set is down
	// does its window degrade to a loud partial.
	Shards []string
	// Client issues shard requests (default: a client with no overall
	// timeout — per-request contexts carry the deadlines).
	Client *http.Client
	// MaxAttempts bounds tries per shard call (default 3).
	MaxAttempts int
	// RetryBase / RetryCap shape the capped-exponential retry backoff
	// (defaults 50ms / 1s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// HedgeAfter, when positive, launches a duplicate shard request
	// after this long without a response; the first answer wins. Keep it
	// near the shard's p99 — hedging the median doubles load for nothing.
	// Zero disables hedging.
	HedgeAfter time.Duration
	// Breaker shapes the per-shard circuit breakers.
	Breaker server.BreakerConfig
	// Admission bounds the coordinator's own front door.
	Admission server.AdmissionConfig
	// Caps bounds every admitted request's budget before splitting.
	Caps runctl.Caps
	// Quorum is the healthy-shard count readyz requires (default:
	// majority of Shards).
	Quorum int
	// Sliced declares that each worker serves only its own data slice
	// (produced by shard.Slice) instead of the full dataset. The
	// coordinator then derives owned windows from the workers' actual
	// time extents, skips the fingerprint-agreement check (slices are
	// *supposed* to differ), and refuses to enumerate (slice-local edge
	// IDs are not globally meaningful). The operator must slice with a
	// δ at least as large as any query δ — the coordinator cannot
	// verify slice self-sufficiency remotely.
	Sliced bool
	// MergeMargin is wall-clock headroom reserved from each shard's
	// deadline for the coordinator's own merge and serialization
	// (default 200ms).
	MergeMargin time.Duration
	// EnumerateMaxLimit caps one merged enumerate page (default 1000).
	EnumerateMaxLimit int
	// MaxBodyBytes caps every JSON request body (0 means
	// server.DefaultMaxBodyBytes). Oversized bodies answer 413.
	MaxBodyBytes int64
	// ProbeTimeout bounds one readyz shard health probe (default 500ms).
	ProbeTimeout time.Duration
	// Obs receives coordinator metrics (nil: dropped).
	Obs *obs.Registry
	// AccessLog, when non-nil, receives one JSON line per request
	// (trace id, route, priority, outcome, shed/partial markers).
	AccessLog io.Writer
	// TraceCapacity bounds the merged traces retained for
	// GET /debug/trace/<id> (default 256, oldest evicted).
	TraceCapacity int
}

func (c Config) normalized() Config {
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = time.Second
	}
	if c.Quorum < 1 {
		c.Quorum = len(c.Shards)/2 + 1
	}
	if c.MergeMargin <= 0 {
		c.MergeMargin = 200 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	for i, s := range c.Shards {
		members := strings.Split(s, "|")
		for j, m := range members {
			members[j] = strings.TrimRight(strings.TrimSpace(m), "/")
		}
		c.Shards[i] = strings.Join(members, "|")
	}
	return c
}

// setLabel names one replica set in errors, partials, and metrics.
func setLabel(members []string) string { return strings.Join(members, "|") }

// Coordinator is the scatter-gather Backend behind a server.Front:
// its executors are other mintds. Create with New, mount Handler, call
// Drain exactly once on the way out.
type Coordinator struct {
	*server.Front
	cfg Config
	obs *obs.Registry
	brk *server.BreakerGroup

	// sets[i] is shard entry i split into its replica members; a
	// single-URL entry is a one-member set. Plan range i belongs to
	// sets[i] as a unit — any member can serve it, fingerprint willing.
	sets [][]string

	// infos caches each shard's DatasetInfoResponse per dataset.
	// Static datasets are immutable for a process lifetime, so a
	// fingerprint fetched once stays valid; a shard that later dies keeps
	// its cached identity and is reported missing rather than silently
	// re-planned around. Live (ingest/replicated) datasets are never
	// cached — their fingerprint moves with every append.
	infoMu sync.Mutex
	infos  map[string]map[string]*server.DatasetInfoResponse
}

// New builds a Coordinator from cfg.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("gather: at least one shard URL is required")
	}
	c := &Coordinator{
		cfg:   cfg.normalized(),
		obs:   cfg.Obs,
		brk:   server.NewBreakerGroup(cfg.Breaker, cfg.Obs),
		infos: map[string]map[string]*server.DatasetInfoResponse{},
	}
	for i, entry := range c.cfg.Shards {
		var set []string
		for _, m := range strings.Split(entry, "|") {
			if m != "" {
				set = append(set, m)
			}
		}
		if len(set) == 0 {
			return nil, fmt.Errorf("gather: shard entry %d is empty", i)
		}
		c.sets = append(c.sets, set)
	}
	c.Front = server.NewFront(c, server.FrontConfig{
		Mode:              "coordinate",
		Routes:            "gather",
		Drain:             "gather",
		Caps:              cfg.Caps,
		Admission:         cfg.Admission,
		EnumerateMaxLimit: cfg.EnumerateMaxLimit,
		MaxBodyBytes:      cfg.MaxBodyBytes,
		Obs:               cfg.Obs,
		AccessLog:         cfg.AccessLog,
		TraceCapacity:     cfg.TraceCapacity,
	})
	return c, nil
}

// Close is a no-op: in-flight fan-outs ended with drain, and the
// coordinator holds no local state worth sealing.
func (c *Coordinator) Close() {}

// Shard RPC --------------------------------------------------------------

// shardError is a non-2xx shard response.
type shardError struct {
	status     int
	msg        string
	retryAfter int
}

func (e *shardError) Error() string {
	return fmt.Sprintf("shard returned %d: %s", e.status, e.msg)
}

// retryable says whether a failed attempt is worth repeating: transport
// errors and overload/5xx are; other 4xx mean the request itself is
// wrong and will be wrong again.
func retryable(err error) bool {
	var se *shardError
	if errors.As(err, &se) {
		return se.status == http.StatusTooManyRequests || se.status >= 500
	}
	return true
}

// errBreakerOpen marks a shard skipped because its breaker is open.
var errBreakerOpen = errors.New("shard breaker open")

// call POSTs in to one shard with bounded retries, capped backoff, and
// (when configured) hedging, decoding the 200 body into out. The
// shard's breaker gates the call and records its outcome. Each call
// records one "shard.call" span carrying the retry/hedge/breaker
// decisions; its span id is propagated to the shard as the traceparent,
// so the shard's own span tree hangs under this span in the merged
// trace.
func (c *Coordinator) call(ctx context.Context, shardURL, path string, in, out any) error {
	rt := obs.ReqTraceFrom(ctx)
	sp := rt.Begin("shard.call", rt.RootID())
	sp.Set("shard", shardURL)
	sp.Set("path", path)
	err := c.callTraced(ctx, rt, sp, shardURL, path, in, out)
	if err != nil {
		sp.Set("outcome", "error")
		sp.Set("error", err.Error())
	} else {
		sp.Set("outcome", "ok")
	}
	sp.End()
	return err
}

func (c *Coordinator) callTraced(ctx context.Context, rt *obs.ReqTrace, sp *obs.SpanRef, shardURL, path string, in, out any) error {
	if c.brk.Acquire(shardURL) == server.Degrade {
		c.obs.Counter("gather.breaker_skip").Add(1)
		c.obs.Counter(obs.Labeled("gather.breaker_skip_by", "shard", shardURL)).Add(1)
		sp.Set("breaker", "open")
		return fmt.Errorf("%s: %w", shardURL, errBreakerOpen)
	}
	body, err := json.Marshal(in)
	if err != nil {
		c.brk.Record(shardURL, true) // our bug, not shard health evidence
		return err
	}
	// The shard call carries this span's id as the parent, so the
	// worker-side root span links under it in the merged trace.
	tp := ""
	if rt.TraceID() != "" {
		tp = obs.TraceContext{TraceID: rt.TraceID(), SpanID: sp.ID()}.Traceparent()
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.obs.Counter("gather.retry").Add(1)
			c.obs.Counter(obs.Labeled("gather.retry_by", "shard", shardURL)).Add(1)
			sp.Set("retries", strconv.Itoa(attempt))
			select {
			case <-time.After(runctl.Backoff(attempt-1, c.cfg.RetryBase, c.cfg.RetryCap)):
			case <-ctx.Done():
				c.brk.Record(shardURL, false)
				return ctx.Err()
			}
		}
		err := c.attempt(ctx, shardURL, path, tp, body, out, sp)
		if err == nil {
			c.brk.Record(shardURL, true)
			return nil
		}
		lastErr = err
		var se *shardError
		if errors.As(err, &se) && se.retryAfter > 0 {
			c.NoteRetryAfter(time.Duration(se.retryAfter) * time.Second)
		}
		if !retryable(err) {
			// The shard answered (it is healthy); the request is bad.
			c.brk.Record(shardURL, true)
			return err
		}
		if ctx.Err() != nil {
			break
		}
	}
	c.brk.Record(shardURL, false)
	return fmt.Errorf("%s%s: %w", shardURL, path, lastErr)
}

// attempt issues one shard request, hedging a duplicate after
// cfg.HedgeAfter without a response. First answer wins; the cancel on
// return reclaims the loser. tp is the traceparent header value
// propagated to the shard ("" when the request carries no trace).
func (c *Coordinator) attempt(ctx context.Context, shardURL, path, tp string, body []byte, out any, sp *obs.SpanRef) error {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type reply struct {
		data []byte
		err  error
	}
	ch := make(chan reply, 2)
	do := func() {
		req, err := http.NewRequestWithContext(actx, http.MethodPost, shardURL+path, bytes.NewReader(body))
		if err != nil {
			ch <- reply{err: err}
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if tp != "" {
			req.Header.Set("traceparent", tp)
		}
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			ch <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		if err != nil {
			ch <- reply{err: err}
			return
		}
		if resp.StatusCode != http.StatusOK {
			var er server.ErrorResponse
			_ = json.Unmarshal(data, &er)
			msg := er.Error
			if msg == "" {
				msg = resp.Status
			}
			ch <- reply{err: &shardError{status: resp.StatusCode, msg: msg, retryAfter: er.RetryAfterSeconds}}
			return
		}
		ch <- reply{data: data}
	}
	go do()
	pending := 1
	var timerC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		timerC = t.C
	}
	var firstErr error
	for {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				return json.Unmarshal(r.data, out)
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if pending == 0 {
				return firstErr
			}
			timerC = nil // one copy already failed; await the other
		case <-timerC:
			timerC = nil
			pending++
			c.obs.Counter("gather.hedged").Add(1)
			c.obs.Counter(obs.Labeled("gather.hedged_by", "shard", shardURL)).Add(1)
			sp.Set("hedged", "true")
			go do()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Planning ---------------------------------------------------------------

// shardInfo fetches (and caches forever) one shard's identity for a
// dataset.
func (c *Coordinator) shardInfo(ctx context.Context, shardURL, dataset string) (*server.DatasetInfoResponse, error) {
	c.infoMu.Lock()
	m := c.infos[dataset]
	if m == nil {
		m = map[string]*server.DatasetInfoResponse{}
		c.infos[dataset] = m
	}
	info := m[shardURL]
	c.infoMu.Unlock()
	if info != nil {
		return info, nil
	}
	var out server.DatasetInfoResponse
	if err := c.call(ctx, shardURL, "/v1/datasetinfo", server.DatasetInfoRequest{Dataset: dataset}, &out); err != nil {
		return nil, err
	}
	if !out.Live {
		// A live dataset's fingerprint describes this instant only;
		// caching it would plan future fan-outs against a stale identity.
		c.infoMu.Lock()
		c.infos[dataset][shardURL] = &out
		c.infoMu.Unlock()
	}
	return &out, nil
}

// setInfo identifies one replica set: members in order, first answer
// wins and becomes the acting member. A 400 (unknown dataset) bounces
// immediately — every member would say the same.
func (c *Coordinator) setInfo(ctx context.Context, set []string, dataset string) (*server.DatasetInfoResponse, string, error) {
	var lastErr error
	for _, u := range set {
		info, err := c.shardInfo(ctx, u, dataset)
		if err == nil {
			return info, u, nil
		}
		lastErr = err
		var se *shardError
		if errors.As(err, &se) && se.status == http.StatusBadRequest {
			return nil, "", err
		}
	}
	return nil, "", lastErr
}

// queryPlan is one request's fan-out: ranges[i] is the owned root
// window served by replica set members[i], preferring acting member
// urls[i]; fps[i] is the fingerprint the set was planned against (the
// failover admission bar); ok[i] is false when no member of the set
// could even be identified (its window is missing from the start).
type queryPlan struct {
	ranges  []shard.Range
	urls    []string
	members [][]string
	fps     []string
	ok      []bool
}

// missingUpfront lists the replica sets already known unusable.
func (qp *queryPlan) missingUpfront() []string {
	var out []string
	for i, ok := range qp.ok {
		if !ok {
			out = append(out, setLabel(qp.members[i]))
		}
	}
	return out
}

// planFor identifies every shard and computes the fan-out for one
// (dataset, δ) query.
func (c *Coordinator) planFor(ctx context.Context, dataset string, delta mint.Timestamp) (*queryPlan, error) {
	n := len(c.sets)
	infos := make([]*server.DatasetInfoResponse, n)
	acting := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, set := range c.sets {
		wg.Add(1)
		go func(i int, set []string) {
			defer wg.Done()
			infos[i], acting[i], errs[i] = c.setInfo(ctx, set, dataset)
		}(i, set)
	}
	wg.Wait()
	// A 400 is about the request (unknown dataset), not shard health:
	// bounce it to the client unchanged.
	for _, err := range errs {
		var se *shardError
		if errors.As(err, &se) && se.status == http.StatusBadRequest {
			return nil, badRequest(se.msg)
		}
	}

	if c.cfg.Sliced {
		return c.planSliced(infos, acting, errs)
	}

	// Full-data mode: every identified set must serve the same bytes.
	// (Members WITHIN a set replicate one history by construction; a
	// laggy member is rejected at failover time, not here.)
	fp, span := "", shard.Range{}
	firstOK := -1
	for i, info := range infos {
		if info == nil {
			continue
		}
		if firstOK < 0 {
			firstOK = i
			fp = info.Fingerprint
			span = shard.Range{Start: mint.Timestamp(info.MinTS), End: mint.Timestamp(info.MaxTS)}
			continue
		}
		if info.Fingerprint != fp {
			return nil, server.NewError(http.StatusBadGateway, fmt.Sprintf(
				"shard data mismatch for dataset %q: %s serves %s but %s serves %s — refusing to merge",
				dataset, acting[firstOK], fp, acting[i], info.Fingerprint), 0)
		}
	}
	if firstOK < 0 {
		msg := fmt.Sprintf("no shard could describe dataset %q", dataset)
		for i, err := range errs {
			if err != nil {
				msg += fmt.Sprintf("; %s: %v", setLabel(c.sets[i]), err)
				break
			}
		}
		return nil, errors.New(msg)
	}
	p := shard.New(span.Start, span.End, n, delta)
	qp := &queryPlan{ranges: p.Ranges}
	for i := range p.Ranges {
		u := acting[i]
		if u == "" {
			u = c.sets[i][0]
		}
		qp.urls = append(qp.urls, u)
		qp.members = append(qp.members, c.sets[i])
		pfp := ""
		if infos[i] != nil {
			pfp = infos[i].Fingerprint
		}
		qp.fps = append(qp.fps, pfp)
		qp.ok = append(qp.ok, infos[i] != nil)
	}
	return qp, nil
}

// planSliced derives owned windows from the workers' actual time
// extents: shard k (ordered by its slice's first timestamp) owns
// [minTS_k, minTS_k+1), the last through maxTS+1. The reconstructed
// boundaries may sit later than the slicer's cuts, but only across
// stretches holding no edges — no roots live there, so the windows
// still partition the instance set exactly. Every shard must be
// identifiable at least once (cached thereafter): a never-seen shard's
// window cannot be reconstructed, and folding it into a neighbour that
// does not hold its data would silently undercount — the one failure
// mode this layer exists to prevent.
func (c *Coordinator) planSliced(infos []*server.DatasetInfoResponse, acting []string, errs []error) (*queryPlan, error) {
	for i, info := range infos {
		if info == nil {
			return nil, fmt.Errorf("sliced coordinator cannot plan: shard %s never identified (%v)", setLabel(c.sets[i]), errs[i])
		}
	}
	order := make([]int, len(infos))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return infos[order[a]].MinTS < infos[order[b]].MinTS })
	qp := &queryPlan{}
	for k, idx := range order {
		start := mint.Timestamp(infos[idx].MinTS)
		var end mint.Timestamp
		if k+1 < len(order) {
			end = mint.Timestamp(infos[order[k+1]].MinTS)
		} else {
			end = mint.Timestamp(infos[idx].MaxTS) + 1
		}
		if end <= start {
			end = start + 1
		}
		qp.ranges = append(qp.ranges, shard.Range{Start: start, End: end})
		qp.urls = append(qp.urls, acting[idx])
		qp.members = append(qp.members, c.sets[idx])
		qp.fps = append(qp.fps, infos[idx].Fingerprint)
		qp.ok = append(qp.ok, true)
	}
	return qp, nil
}

// callSet issues one fan-out call with replica failover: the acting
// member first, then — on transport/5xx failure — each remaining set
// member whose CURRENT fingerprint matches the plan's. The fingerprint
// bar hedges against laggy standbys: a replica still catching up
// serves an older graph, and merging its window would be a silently
// short count, the one failure mode this layer exists to prevent. Only
// when every member is down or lagging does the range go missing
// (loud partial). A 400 is the request's fault and bounces immediately
// — every member would answer the same.
func (c *Coordinator) callSet(ctx context.Context, qp *queryPlan, i int, dataset, path string, in, out any) error {
	err := c.call(ctx, qp.urls[i], path, in, out)
	if err == nil {
		return nil
	}
	var se *shardError
	if errors.As(err, &se) && se.status == http.StatusBadRequest {
		return err
	}
	for _, m := range qp.members[i] {
		if m == qp.urls[i] || ctx.Err() != nil {
			continue
		}
		info, ierr := c.shardInfo(ctx, m, dataset)
		if ierr != nil {
			continue
		}
		if qp.fps[i] != "" && info.Fingerprint != qp.fps[i] {
			c.obs.Counter("gather.failover_fp_mismatch").Add(1)
			c.obs.Counter(obs.Labeled("gather.failover_fp_mismatch_by", "shard", m)).Add(1)
			continue
		}
		ferr := c.call(ctx, m, path, in, out)
		if ferr == nil {
			c.obs.Counter("gather.failover").Add(1)
			c.obs.Counter(obs.Labeled("gather.failover_by", "shard", m)).Add(1)
			return nil
		}
		if errors.As(ferr, &se) && se.status == http.StatusBadRequest {
			return ferr
		}
		err = ferr
	}
	return err
}

// planningDelta mirrors the worker's δ default so the coordinator's
// partition matches what the shards will mine.
func planningDelta(deltaSeconds int64) mint.Timestamp {
	if deltaSeconds <= 0 {
		return mint.DeltaHour
	}
	return mint.Timestamp(deltaSeconds)
}

func badRequest(msg string) error { return server.NewError(http.StatusBadRequest, msg, 0) }

// Count ------------------------------------------------------------------

// fanoutCount runs one (single-motif or batch) count fan-out: plan the
// shards, split the budget, assign each shard its owned root window,
// and merge the answers. Root-window independence makes the merge a
// plain per-entry sum; Degraded/Truncated markers OR together so a
// blended answer is never presented as exact. Batch requests merge
// PerMotif entrywise — shards answer the same motif list in the same
// deterministic order (Motifs then MotifSpecs), so entry i everywhere
// is the same motif; a shard answering a different entry count is
// treated as failed rather than mis-summed.
func (c *Coordinator) fanoutCount(ctx context.Context, req *server.CountRequest, full runctl.Budget) (*server.CountResponse, error) {
	rt := obs.ReqTraceFrom(ctx)
	psp := rt.Begin("gather.plan", rt.RootID())
	qp, err := c.planFor(ctx, req.Dataset, planningDelta(req.DeltaSeconds))
	if err != nil {
		psp.Set("outcome", "error")
		psp.End()
		return nil, err
	}
	n := len(qp.ranges)
	psp.Set("shards", strconv.Itoa(n))
	if miss := qp.missingUpfront(); len(miss) > 0 {
		psp.Set("missing_upfront", strings.Join(miss, ","))
	}
	psp.End()
	per := runctl.SplitBudget(full, n, c.cfg.MergeMargin)
	numMotifs := len(req.Motifs) + len(req.MotifSpecs)

	results := make([]*server.CountResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range qp.ranges {
		if !qp.ok[i] {
			errs[i] = errBreakerOpen
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sreq := server.CountRequest{
				Dataset:      req.Dataset,
				Motif:        req.Motif,
				MotifSpec:    req.MotifSpec,
				Motifs:       req.Motifs,
				MotifSpecs:   req.MotifSpecs,
				DeltaSeconds: req.DeltaSeconds,
				TimeoutMS:    shardTimeoutMS(per),
				MaxMatches:   per.MaxMatches,
				MaxNodes:     per.MaxNodes,
				Priority:     req.Priority,
				RootWindow:   &server.TimeWindow{StartTS: int64(qp.ranges[i].Start), EndTS: int64(qp.ranges[i].End)},
				// Ask the shard for its span fragment so the merged trace
				// covers the whole fan-out.
				ReturnTrace: rt.TraceID() != "",
			}
			var out server.CountResponse
			if err := c.callSet(ctx, qp, i, req.Dataset, "/v1/count", sreq, &out); err != nil {
				c.obs.Counter("gather.shard_failed").Add(1)
				c.obs.Counter(obs.Labeled("gather.shard_failed_by", "shard", qp.urls[i])).Add(1)
				errs[i] = err
				return
			}
			if numMotifs > 0 && len(out.PerMotif) != numMotifs {
				// A shard whose entry list does not line up cannot be merged
				// entrywise; a mis-aligned sum would be silently wrong.
				c.obs.Counter("gather.shard_failed").Add(1)
				errs[i] = fmt.Errorf("shard %s answered %d per-motif entries, want %d",
					qp.urls[i], len(out.PerMotif), numMotifs)
				return
			}
			rt.Import(out.TraceFrag, qp.urls[i])
			out.TraceFrag = nil // merged client responses carry one trace id, not raw shard spans
			results[i] = &out
		}(i)
	}
	wg.Wait()

	// A shard that answered 400 is reporting a malformed fan-out request
	// (bad motif spec, usually): that is the client's error, not a
	// missing shard.
	for _, err := range errs {
		var se *shardError
		if errors.As(err, &se) && se.status == http.StatusBadRequest {
			return nil, badRequest(se.msg)
		}
	}

	out := &server.CountResponse{Engine: mint.EngineExact, Exact: true}
	if numMotifs > 0 {
		out.PerMotif = make([]server.MotifCountEntry, numMotifs)
	}
	var missing []string
	for i, res := range results {
		if res == nil {
			missing = append(missing, setLabel(qp.members[i]))
			continue
		}
		out.Count += res.Count
		out.ExactPartial += res.ExactPartial
		if res.Degraded {
			out.Degraded = true
		}
		if res.Truncated {
			out.Truncated = true
			if out.StopReason == "" {
				out.StopReason = res.StopReason
			}
		}
		for j, e := range res.PerMotif {
			m := &out.PerMotif[j]
			m.Motif, m.Spec = e.Motif, e.Spec
			m.Count += e.Count
			if e.Truncated {
				m.Truncated = true
				if m.StopReason == "" {
					m.StopReason = e.StopReason
				}
			}
		}
	}
	if len(missing) == n {
		return nil, errors.New("all shards unavailable")
	}
	if len(missing) > 0 {
		c.obs.Counter("gather.partial_merge").Add(1)
		out.Truncated = true
		out.StopReason = StopShardUnavailable
		out.Partial = &server.PartialInfo{MissingShards: missing, Bound: "lower"}
		rt.Annotate("partial", strings.Join(missing, ","))
		// A lost shard's window is missing from EVERY entry: each one is
		// now a loud lower bound, whatever its own shards reported.
		for j := range out.PerMotif {
			m := &out.PerMotif[j]
			m.Truncated = true
			if m.StopReason == "" {
				m.StopReason = StopShardUnavailable
			}
		}
	}
	switch {
	case out.Degraded:
		// A shard answered with an estimate mixed into exact sums; the
		// merged engine is neither — name the blend honestly.
		out.Exact = false
		out.Engine = "mixed"
	case out.Truncated:
		out.Exact = false
		out.Engine = mint.EnginePartial
	}
	return out, nil
}

// Count fans one (single-motif or batch) count out over the shards.
func (c *Coordinator) Count(ctx context.Context, req *server.CountRequest, full runctl.Budget) (*server.CountResponse, error) {
	if req.Supervised {
		return nil, badRequest("supervised is not supported in coordinator mode")
	}
	if req.RootWindow != nil {
		return nil, badRequest(errRootWindow)
	}
	return c.fanoutCount(ctx, req, full)
}

// errRootWindow refuses client root windows: the coordinator assigns
// them.
const errRootWindow = "root_window is assigned by the coordinator; query a worker directly to restrict roots"

// shardTimeoutMS converts a split budget's deadline into the per-shard
// request timeout (0 = let the shard apply its own default).
func shardTimeoutMS(per runctl.Budget) int64 {
	if per.Deadline.IsZero() {
		return 0
	}
	ms := time.Until(per.Deadline).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// Enumerate --------------------------------------------------------------

// Merged page tokens are "shardIdx:innerToken" — the shard the walk
// stopped in plus that shard's own resumption token.
func parseMergedToken(tok string, n int) (int, string, error) {
	if tok == "" {
		return 0, "", nil
	}
	idxs, inner, found := strings.Cut(tok, ":")
	if !found {
		return 0, "", errors.New("malformed page_token")
	}
	idx, err := strconv.Atoi(idxs)
	if err != nil || idx < 0 || idx >= n {
		return 0, "", errors.New("malformed page_token")
	}
	return idx, inner, nil
}

// Enumerate walks the shards in range order for one merged page.
func (c *Coordinator) Enumerate(ctx context.Context, req *server.EnumerateRequest, full runctl.Budget) (*server.EnumerateResponse, error) {
	if c.cfg.Sliced {
		return nil, server.NewError(http.StatusNotImplemented,
			"enumerate is not supported on a sliced deployment: slice-local edge IDs are not globally meaningful", 0)
	}
	if req.RootWindow != nil {
		return nil, badRequest(errRootWindow)
	}
	rt := obs.ReqTraceFrom(ctx)
	psp := rt.Begin("gather.plan", rt.RootID())
	qp, err := c.planFor(ctx, req.Dataset, planningDelta(req.DeltaSeconds))
	if err != nil {
		psp.Set("outcome", "error")
		psp.End()
		return nil, err
	}
	n := len(qp.ranges)
	psp.Set("shards", strconv.Itoa(n))
	psp.End()
	shardIdx, inner, err := parseMergedToken(req.PageToken, n)
	if err != nil {
		return nil, badRequest(err.Error())
	}
	per := runctl.SplitBudget(full, 1, c.cfg.MergeMargin) // sequential walk: full wall per shard

	// Walk shards in range order: within one shard the worker streams
	// the deterministic chronological order, and ranges are ordered by
	// root timestamp, so concatenation reproduces the global order.
	out := &server.EnumerateResponse{Matches: [][]int32{}}
	for shardIdx < n && len(out.Matches) < req.Limit {
		if !qp.ok[shardIdx] {
			out.Truncated = true
			out.StopReason = StopShardUnavailable
			out.Partial = &server.PartialInfo{MissingShards: []string{setLabel(qp.members[shardIdx])}, Bound: "lower"}
			break
		}
		sreq := server.EnumerateRequest{
			Dataset:      req.Dataset,
			Motif:        req.Motif,
			MotifSpec:    req.MotifSpec,
			DeltaSeconds: req.DeltaSeconds,
			TimeoutMS:    shardTimeoutMS(per),
			Priority:     req.Priority,
			Limit:        req.Limit - len(out.Matches),
			PageToken:    inner,
			RootWindow:   &server.TimeWindow{StartTS: int64(qp.ranges[shardIdx].Start), EndTS: int64(qp.ranges[shardIdx].End)},
			ReturnTrace:  rt.TraceID() != "",
		}
		var sres server.EnumerateResponse
		if err := c.callSet(ctx, qp, shardIdx, req.Dataset, "/v1/enumerate", sreq, &sres); err != nil {
			var se *shardError
			if errors.As(err, &se) && se.status == http.StatusBadRequest {
				return nil, badRequest(se.msg)
			}
			c.obs.Counter("gather.shard_failed").Add(1)
			c.obs.Counter(obs.Labeled("gather.shard_failed_by", "shard", qp.urls[shardIdx])).Add(1)
			// The walk cannot skip a shard without breaking the global
			// order; stop here, loudly.
			out.Truncated = true
			out.StopReason = StopShardUnavailable
			out.Partial = &server.PartialInfo{MissingShards: []string{setLabel(qp.members[shardIdx])}, Bound: "lower"}
			break
		}
		rt.Import(sres.TraceFrag, qp.urls[shardIdx])
		out.Matches = append(out.Matches, sres.Matches...)
		if sres.Truncated && sres.NextPageToken == "" {
			// A real truncation (wall/node budget), not a filled page.
			out.Truncated = true
			out.StopReason = sres.StopReason
			break
		}
		if sres.NextPageToken != "" {
			inner = sres.NextPageToken
			if len(out.Matches) >= req.Limit {
				out.NextPageToken = fmt.Sprintf("%d:%s", shardIdx, inner)
				break
			}
			continue
		}
		shardIdx++
		inner = ""
		if shardIdx < n && len(out.Matches) >= req.Limit {
			out.NextPageToken = fmt.Sprintf("%d:", shardIdx)
			break
		}
	}
	return out, nil
}

// Profile / info / readiness ----------------------------------------------

// Profile serves the M1–M4 fingerprint in coordinator mode as ONE
// batch count fan-out: each shard co-mines the whole set over its owned
// root window under its split budget, and the coordinator sums the
// per-motif entries. Lost shards surface as Partial plus per-entry
// truncation — a profile assembled without every shard is a loud lower
// bound, never a silently short fingerprint.
func (c *Coordinator) Profile(ctx context.Context, req *server.ProfileRequest, full runctl.Budget) (*server.ProfileResponse, error) {
	creq := server.CountRequest{
		Dataset:      req.Dataset,
		Motifs:       []string{"M1", "M2", "M3", "M4"},
		DeltaSeconds: req.DeltaSeconds,
		TimeoutMS:    req.TimeoutMS,
		Priority:     req.Priority,
	}
	merged, err := c.fanoutCount(ctx, &creq, full)
	if err != nil {
		return nil, err
	}
	perK := 1000.0 / float64(max(1, c.datasetEdges(ctx, req.Dataset)))
	out := &server.ProfileResponse{Partial: merged.Partial}
	for _, e := range merged.PerMotif {
		out.Profile = append(out.Profile, server.ProfileEntry{
			Motif:      e.Motif,
			Spec:       e.Spec,
			Count:      e.Count,
			Density:    float64(e.Count) * perK,
			Truncated:  e.Truncated,
			StopReason: e.StopReason,
		})
	}
	if merged.Truncated {
		obs.ReqTraceFrom(ctx).Annotate("truncated", merged.StopReason)
	}
	return out, nil
}

// datasetEdges reports the dataset's total edge count for density
// normalization: the identified shard's count in full-data mode (every
// shard serves the same bytes), the sum of slice counts when sliced.
// Infos are cached by the planner, so this never re-fans the probes.
func (c *Coordinator) datasetEdges(ctx context.Context, dataset string) int {
	total := 0
	for _, set := range c.sets {
		info, _, err := c.setInfo(ctx, set, dataset)
		if err != nil {
			continue
		}
		if !c.cfg.Sliced {
			return info.Edges
		}
		total += info.Edges
	}
	return total
}

// DatasetInfo reports the (verified-identical) dataset identity in
// full-data mode; sliced deployments have no single identity to report.
func (c *Coordinator) DatasetInfo(ctx context.Context, req *server.DatasetInfoRequest) (*server.DatasetInfoResponse, error) {
	if c.cfg.Sliced {
		return nil, server.NewError(http.StatusNotImplemented, "datasetinfo is per-slice on a sliced deployment; query workers directly", 0)
	}
	qp, err := c.planFor(ctx, req.Dataset, mint.DeltaHour)
	if err != nil {
		return nil, err
	}
	for i := range qp.urls {
		if !qp.ok[i] {
			continue
		}
		if info, _, err := c.setInfo(ctx, qp.members[i], req.Dataset); err == nil {
			return info, nil
		}
	}
	return nil, server.NewError(http.StatusServiceUnavailable, "no shard available", 0)
}

// Ready live-probes every shard's /healthz and reports ready only
// when a quorum answers: a coordinator whose fan-outs would all come
// back partial should not receive traffic a load balancer could send to
// a healthier peer.
func (c *Coordinator) Ready(ctx context.Context) (int, any) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	// Probe every member of every set; a SET is healthy when any member
	// answers — quorum counts sets, because a set with one live replica
	// still serves its whole root window exactly.
	type probe struct{ set, member int }
	var probes []probe
	for i, set := range c.sets {
		for j := range set {
			probes = append(probes, probe{i, j})
		}
	}
	status := make([][]string, len(c.sets))
	for i, set := range c.sets {
		status[i] = make([]string, len(set))
	}
	var wg sync.WaitGroup
	for _, p := range probes {
		wg.Add(1)
		go func(p probe) {
			defer wg.Done()
			u := c.sets[p.set][p.member]
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/healthz", nil)
			if err != nil {
				status[p.set][p.member] = "unreachable"
				return
			}
			resp, err := c.cfg.Client.Do(req)
			if err != nil {
				status[p.set][p.member] = "unreachable"
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				status[p.set][p.member] = "ok"
			} else {
				status[p.set][p.member] = fmt.Sprintf("status %d", resp.StatusCode)
			}
		}(p)
	}
	wg.Wait()
	var healthy atomic.Int64
	shards := map[string]string{}
	for i, set := range c.sets {
		setOK := false
		for j, u := range set {
			shards[u] = status[i][j]
			if status[i][j] == "ok" {
				setOK = true
			}
		}
		if setOK {
			healthy.Add(1)
		}
	}
	body := map[string]any{
		"healthy": healthy.Load(),
		"quorum":  c.cfg.Quorum,
		"shards":  shards,
	}
	if int(healthy.Load()) >= c.cfg.Quorum {
		body["status"] = "ready"
		return http.StatusOK, body
	}
	body["status"] = "below quorum"
	return http.StatusServiceUnavailable, body
}
