package server

// The HTTP front both mintd modes share. Every mining endpoint runs one
// ladder here — decode → admission (shed early, honestly) → budget
// derivation → Backend → response tail (trace id, explain tree, span
// fragment, wall time) — and every instrumented route gets the same
// trace, metrics, access-log, panic, and drain handling. The worker
// (*Server) and the scatter-gather coordinator (package gather) differ
// only in the Backend behind the front.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mint/internal/obs"
	"mint/internal/runctl"
)

// Backend is what a Front serves. The mining methods run after the
// front has decoded, admitted, and budgeted the request: ctx carries
// the request trace and the budget's deadline, full is the derived
// budget. A returned *StatusError is answered as-is; any other error
// answers 503 with the front's Retry-After estimate.
type Backend interface {
	Count(ctx context.Context, req *CountRequest, full runctl.Budget) (*CountResponse, error)
	Enumerate(ctx context.Context, req *EnumerateRequest, full runctl.Budget) (*EnumerateResponse, error)
	Profile(ctx context.Context, req *ProfileRequest, full runctl.Budget) (*ProfileResponse, error)
	// DatasetInfo skips admission: it mines nothing and must stay
	// answerable under load so coordinators can plan.
	DatasetInfo(ctx context.Context, req *DatasetInfoRequest) (*DatasetInfoResponse, error)
	// Ready is the /readyz answer once the front has ruled out drain.
	Ready(ctx context.Context) (status int, body any)
	// Close runs once, at the end of Drain, after in-flight requests
	// have finished.
	Close()
}

// FrontConfig shapes one mode's front.
type FrontConfig struct {
	// Mode is the RunReport mode ("serve", "coordinate").
	Mode string
	// Routes prefixes per-route metrics and root span names ("http",
	// "gather"); Drain prefixes the drain counters ("server", "gather").
	Routes string
	Drain  string

	Caps      runctl.Caps
	Admission AdmissionConfig
	// EnumerateMaxLimit caps one enumerate page (0 = 1000).
	EnumerateMaxLimit int
	// MaxBodyBytes caps every JSON request body (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	Obs          *obs.Registry
	// AccessLog, when non-nil, receives one JSON line per request.
	AccessLog io.Writer
	// TraceCapacity bounds the traces kept for /debug/trace (0 = 256).
	TraceCapacity int
}

// DefaultMaxBodyBytes bounds a JSON request body when no limit is
// configured: generous enough for large ingest batches, small enough
// that a single request cannot drive unbounded allocation.
const DefaultMaxBodyBytes = 64 << 20

// drainRetry is the Retry-After of every answer refused by drain.
const drainRetry = 30 * time.Second

// Front owns the request contract and the run lifecycle. Create with
// NewFront, mount Handler, and call Drain exactly once on the way out.
type Front struct {
	cfg    FrontConfig
	b      Backend
	obs    *obs.Registry
	adm    *Admission
	mux    *http.ServeMux
	traces *obs.TraceStore
	alog   *obs.AccessLogger
	start  time.Time

	// runCtx is canceled when drain runs out of patience; every request
	// context is tied to it, so cancellation reaches the engines'
	// cooperative checkpoints and the coordinator's shard calls.
	runCtx     context.Context
	cancelRuns context.CancelFunc

	// stateMu serializes the draining flip against in-flight Add, so
	// Drain's Wait can never race a late registration.
	stateMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	// retryUntil is the worst downstream-reported Retry-After deadline
	// (unix nanos) seen recently (NoteRetryAfter).
	retryUntil atomic.Int64
}

// NewFront builds the front for b and registers the shared routes.
func NewFront(b Backend, cfg FrontConfig) *Front {
	if cfg.EnumerateMaxLimit <= 0 {
		cfg.EnumerateMaxLimit = 1000
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.TraceCapacity <= 0 {
		cfg.TraceCapacity = 256
	}
	f := &Front{
		cfg:    cfg,
		b:      b,
		obs:    cfg.Obs,
		adm:    NewAdmission(cfg.Admission, cfg.Obs),
		mux:    http.NewServeMux(),
		traces: obs.NewTraceStore(cfg.TraceCapacity),
		alog:   obs.NewAccessLogger(cfg.AccessLog),
		start:  time.Now(),
	}
	f.runCtx, f.cancelRuns = context.WithCancel(context.Background())
	f.routes()
	return f
}

// Handler returns the front's HTTP handler (mount obs.AttachDebug
// alongside for /debug/vars and pprof).
func (f *Front) Handler() http.Handler { return f.mux }

// handler serves one instrumented route: it returns the 200 body, or
// the error the front answers instead.
type handler func(w http.ResponseWriter, r *http.Request) (any, error)

func (f *Front) routes() {
	f.handle("POST /v1/count", "count", func(w http.ResponseWriter, r *http.Request) (any, error) {
		var req CountRequest
		if err := f.decode(w, r, &req); err != nil {
			return nil, err
		}
		t := ticket{req.Priority, req.TimeoutMS, req.MaxMatches, req.MaxNodes, req.Explain, req.ReturnTrace}
		return f.mine(r, "count", t, func(ctx context.Context, full runctl.Budget) (reply, error) {
			return f.b.Count(ctx, &req, full)
		})
	})
	f.handle("POST /v1/enumerate", "enumerate", func(w http.ResponseWriter, r *http.Request) (any, error) {
		var req EnumerateRequest
		if err := f.decode(w, r, &req); err != nil {
			return nil, err
		}
		if req.Limit <= 0 {
			return nil, badRequest("limit must be positive")
		}
		req.Limit = min(req.Limit, f.cfg.EnumerateMaxLimit)
		t := ticket{priority: req.Priority, timeoutMS: req.TimeoutMS, explain: req.Explain, frag: req.ReturnTrace}
		return f.mine(r, "enumerate", t, func(ctx context.Context, full runctl.Budget) (reply, error) {
			return f.b.Enumerate(ctx, &req, full)
		})
	})
	f.handle("POST /v1/profile", "profile", func(w http.ResponseWriter, r *http.Request) (any, error) {
		var req ProfileRequest
		if err := f.decode(w, r, &req); err != nil {
			return nil, err
		}
		t := ticket{priority: req.Priority, timeoutMS: req.TimeoutMS, explain: req.Explain}
		return f.mine(r, "profile", t, func(ctx context.Context, full runctl.Budget) (reply, error) {
			return f.b.Profile(ctx, &req, full)
		})
	})
	f.handle("POST /v1/datasetinfo", "datasetinfo", func(w http.ResponseWriter, r *http.Request) (any, error) {
		var req DatasetInfoRequest
		if err := f.decode(w, r, &req); err != nil {
			return nil, err
		}
		ctx, cleanup := f.requestCtx(r)
		defer cleanup()
		return f.b.DatasetInfo(ctx, &req)
	})
	f.mux.HandleFunc("GET /healthz", f.handleHealthz)
	f.mux.HandleFunc("GET /readyz", f.handleReadyz)
	f.mux.HandleFunc("GET /debug/trace/{id}", f.handleTraceDump)
	f.mux.Handle("GET /metrics", obs.MetricsHandler(f.obs))
}

// handle registers an instrumented route.
func (f *Front) handle(pattern, route string, h handler) {
	f.mux.HandleFunc(pattern, f.instrument(route, h))
}

// instrument wraps a route with trace context resolution, in-flight
// registration, per-route metrics, a structured access-log line, and a
// panic backstop (a handler bug becomes a 500 and a counter, never a
// dead process). The X-Trace-Id header is stamped before any outcome is
// decided, so shed and drain responses carry it too.
func (f *Front) instrument(route string, h handler) http.HandlerFunc {
	metric := f.cfg.Routes + "." + route
	return func(w http.ResponseWriter, r *http.Request) {
		rt, sw, r := beginTrace(w, r, metric)
		start := time.Now()
		done, ok := f.beginRequest()
		if !ok {
			f.obs.Counter(metric + ".rejected_draining").Add(1)
			rt.Annotate("outcome", "draining")
			writeError(sw, http.StatusServiceUnavailable, ErrDraining.Error(), RetryAfterSeconds(drainRetry))
			f.finishTrace(rt, route, sw.Status(), start)
			return
		}
		f.obs.Counter(metric + ".requests").Add(1)
		defer func() {
			if rec := recover(); rec != nil {
				f.obs.Counter(metric + ".panics").Add(1)
				writeError(sw, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec), 0)
			}
			f.obs.Histogram(metric + ".latency_ns").Observe(int64(time.Since(start)))
			done()
			f.finishTrace(rt, route, sw.Status(), start)
		}()
		out, err := h(sw, r)
		if err != nil {
			f.writeErr(sw, err)
			return
		}
		writeJSON(sw, http.StatusOK, out)
	}
}

// ticket is what the ladder reads off a mining request.
type ticket struct {
	priority                        string
	timeoutMS, maxMatches, maxNodes int64
	explain, frag                   bool
}

// reply is a mining response: finish annotates the request trace with
// the answer's loud markers and fills the shared response tail.
type reply interface {
	finish(rt *obs.ReqTrace, t ticket, start time.Time)
}

// mine runs the mining ladder around one Backend call: admission,
// budget derivation (the client's limits clamped by the caps), the
// call under the budget's deadline, and the response tail.
func (f *Front) mine(r *http.Request, route string, t ticket, call func(context.Context, runctl.Budget) (reply, error)) (any, error) {
	ctx, cleanup := f.requestCtx(r)
	defer cleanup()
	release, err := f.admit(ctx, t.priority, route)
	if err != nil {
		return nil, err
	}
	defer release()
	start := time.Now()
	full := runctl.DeriveBudget(start, time.Duration(t.timeoutMS)*time.Millisecond,
		runctl.Budget{MaxMatches: t.maxMatches, MaxNodes: t.maxNodes}, f.cfg.Caps)
	if !full.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, full.Deadline)
		defer cancel()
	}
	out, err := call(ctx, full)
	if err != nil {
		return nil, err
	}
	out.finish(obs.ReqTraceFrom(ctx), t, start)
	return out, nil
}

func (t ticket) explainOf(rt *obs.ReqTrace) *obs.ExplainNode {
	if !t.explain {
		return nil
	}
	return obs.BuildExplain(rt.Spans())
}

func (t ticket) fragOf(rt *obs.ReqTrace) []obs.Span {
	if !t.frag {
		return nil
	}
	return rt.Spans()
}

func wallMS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

func (o *CountResponse) finish(rt *obs.ReqTrace, t ticket, start time.Time) {
	rt.Annotate("engine", o.Engine)
	if o.Degraded {
		rt.Annotate("degraded", "true")
	}
	if o.Truncated {
		rt.Annotate("truncated", o.StopReason)
	}
	o.TraceID, o.Explain, o.TraceFrag, o.WallMS = rt.TraceID(), t.explainOf(rt), t.fragOf(rt), wallMS(start)
}

func (o *EnumerateResponse) finish(rt *obs.ReqTrace, t ticket, start time.Time) {
	if o.Truncated {
		rt.Annotate("truncated", o.StopReason)
	}
	if o.Partial != nil {
		rt.Annotate("partial", strings.Join(o.Partial.MissingShards, ","))
	}
	o.TraceID, o.Explain, o.TraceFrag, o.WallMS = rt.TraceID(), t.explainOf(rt), t.fragOf(rt), wallMS(start)
}

func (o *ProfileResponse) finish(rt *obs.ReqTrace, t ticket, start time.Time) {
	o.TraceID, o.Explain, o.WallMS = rt.TraceID(), t.explainOf(rt), wallMS(start)
}

// StatusError is a non-2xx answer: handlers and backends return it,
// the front writes it (with a Retry-After header when RetryAfter is
// positive).
type StatusError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *StatusError) Error() string { return e.Msg }

// NewError builds a StatusError.
func NewError(status int, msg string, retryAfter time.Duration) *StatusError {
	return &StatusError{Status: status, Msg: msg, RetryAfter: retryAfter}
}

func badRequest(msg string) *StatusError { return NewError(http.StatusBadRequest, msg, 0) }

// writeErr answers err: a *StatusError as-is, anything else as an
// overload 503 carrying the front's Retry-After estimate.
func (f *Front) writeErr(w http.ResponseWriter, err error) {
	var se *StatusError
	if !errors.As(err, &se) {
		se = NewError(http.StatusServiceUnavailable, err.Error(), f.retryAfter())
	}
	writeError(w, se.Status, se.Msg, RetryAfterSeconds(se.RetryAfter))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone = nothing to do
}

func writeError(w http.ResponseWriter, status int, msg string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSON(w, status, ErrorResponse{Error: msg, RetryAfterSeconds: retryAfter})
}

// decode reads one JSON request body under the size limit: 413 for an
// oversized body, 400 for a malformed one. Every body-carrying route
// must come through here: it is the front's request-size bound.
func (f *Front) decode(w http.ResponseWriter, r *http.Request, v any) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, f.cfg.MaxBodyBytes)).Decode(v); err != nil {
		var big *http.MaxBytesError
		if errors.As(err, &big) {
			return NewError(http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte limit", big.Limit), 0)
		}
		return badRequest("bad request body: " + err.Error())
	}
	return nil
}

// admit runs the admission ladder; the returned release must be
// deferred. Refusals come back as StatusErrors.
func (f *Front) admit(ctx context.Context, priority, route string) (func(), error) {
	rt := obs.ReqTraceFrom(ctx)
	pri, err := ParsePriority(priority)
	if err != nil {
		return nil, badRequest(err.Error())
	}
	rt.Annotate("priority", pri.String())
	sp := rt.Begin("admission.wait", rt.RootID())
	defer sp.End()
	release, err := f.adm.Acquire(ctx, pri)
	var shed *ShedError
	switch {
	case err == nil:
		sp.Set("outcome", "admitted")
		return release, nil
	case errors.As(err, &shed):
		sp.Set("outcome", "shed")
		f.obs.Counter(f.cfg.Routes + "." + route + ".shed").Add(1)
		return nil, NewError(http.StatusTooManyRequests, err.Error(), f.retryAfter())
	case errors.Is(err, ErrDraining):
		sp.Set("outcome", "draining")
		rt.Annotate("outcome", "draining")
		return nil, NewError(http.StatusServiceUnavailable, err.Error(), drainRetry)
	default: // queue timeout or client context expiry
		sp.Set("outcome", "queue_timeout")
		f.obs.Counter(f.cfg.Routes + "." + route + ".queue_timeout").Add(1)
		return nil, NewError(http.StatusServiceUnavailable, err.Error(), f.retryAfter())
	}
}

// NoteRetryAfter records a Retry-After a downstream server reported
// (a coordinator's shard): until it lapses, the front's own overload
// hints never undercut it.
func (f *Front) NoteRetryAfter(d time.Duration) {
	dl := time.Now().Add(d).UnixNano()
	for {
		old := f.retryUntil.Load()
		if old >= dl || f.retryUntil.CompareAndSwap(old, dl) {
			return
		}
	}
}

// retryAfter is the front's one Retry-After rule for overload answers:
// its own admission estimate, raised to the worst live downstream hint
// (none on a worker, where it is just the admission estimate).
func (f *Front) retryAfter() time.Duration {
	return f.adm.CombineRetryAfter(time.Until(time.Unix(0, f.retryUntil.Load())))
}

// Run lifecycle -----------------------------------------------------------

// Draining reports whether drain has begun.
func (f *Front) Draining() bool {
	f.stateMu.RLock()
	defer f.stateMu.RUnlock()
	return f.draining
}

// beginRequest registers one in-flight request; it fails once drain has
// begun. The returned func must be deferred.
func (f *Front) beginRequest() (func(), bool) {
	f.stateMu.RLock()
	defer f.stateMu.RUnlock()
	if f.draining {
		return nil, false
	}
	f.inflight.Add(1)
	return f.inflight.Done, true
}

// requestCtx ties an HTTP request context to the run lifetime: cancel
// fires when either the client goes away or drain forces runs down.
// The cleanup func must be deferred.
func (f *Front) requestCtx(r *http.Request) (context.Context, func()) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(f.runCtx, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}

// Drain gracefully winds the front down: stop admitting (readyz flips
// to 503, queued waiters bounce with ErrDraining), let in-flight
// requests finish until ctx expires, then cancel their run contexts —
// engines unwind cooperatively, supervised requests flushing their
// checkpoints, shard calls aborting — wait for the stragglers, and
// Close the backend. The HTTP listener shutdown and obs flush are the
// caller's job, in that order after Drain returns.
func (f *Front) Drain(ctx context.Context) error {
	f.stateMu.Lock()
	already := f.draining
	f.draining = true
	f.stateMu.Unlock()
	if already {
		return fmt.Errorf("%s: Drain called twice", f.cfg.Drain)
	}
	f.obs.Counter(f.cfg.Drain + ".drain_started").Add(1)
	f.adm.Stop()

	done := make(chan struct{})
	go func() {
		f.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Patience exhausted: cancellation reaches every engine within
		// one runctl.CheckInterval, so this second wait is bounded by
		// microseconds of mining plus response serialization.
		f.obs.Counter(f.cfg.Drain + ".drain_forced").Add(1)
		f.cancelRuns()
		<-done
	}
	f.cancelRuns() // release the AfterFunc watchers
	f.b.Close()
	f.obs.Counter(f.cfg.Drain + ".drain_done").Add(1)
	return nil
}

// BuildReport assembles the end-of-life RunReport mintd flushes on
// exit: uptime, the full metric state, and the serving mode.
func (f *Front) BuildReport() *obs.RunReport {
	rep := obs.NewRunReport("mintd", f.cfg.Mode)
	rep.StartUnixNano = f.start.UnixNano()
	rep.WallSeconds = time.Since(f.start).Seconds()
	rep.CPUSeconds = obs.ProcessCPUSeconds()
	rep.AttachSnapshot(f.obs.Snapshot())
	return rep
}

// Health and traces -------------------------------------------------------

func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	echoTraceID(w, r)
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (f *Front) handleReadyz(w http.ResponseWriter, r *http.Request) {
	echoTraceID(w, r)
	if f.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	status, body := f.b.Ready(r.Context())
	writeJSON(w, status, body)
}

// finishTrace closes the root span, retains the trace for
// /debug/trace/<id>, and writes the access-log line.
func (f *Front) finishTrace(rt *obs.ReqTrace, route string, status int, start time.Time) {
	rt.Finish()
	f.traces.Add(rt.TraceID(), rt.Spans())
	f.alog.Log(accessRecordFor(rt, route, status, start))
}

// handleTraceDump serves one stored trace as a Chrome trace_event JSON
// document (load it in chrome://tracing or ui.perfetto.dev). On a
// coordinator the stored trace already contains the imported shard
// fragments, so the dump is the merged cross-process timeline.
func (f *Front) handleTraceDump(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if len(f.traces.Get(id)) == 0 {
		writeError(w, http.StatusNotFound, "unknown trace id", 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	f.traces.WriteChromeTrace(w, id) //nolint:errcheck // client gone = nothing to do
}
