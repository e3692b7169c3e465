package server

// Admission control: the bounded front door of mintd.
//
// Mining requests are heavy-tailed (paper §II, Fig 2) — one pathological
// (dataset, motif, δ) can hold a worker for its full deadline — so an
// unbounded accept loop converts a traffic burst into an unbounded
// goroutine pile and, eventually, an OOM kill that loses every in-flight
// request. The admission layer holds two hard bounds instead: a
// concurrency limit (MaxInflight tokens) and a wait-queue limit
// (MaxQueue). When the queue is full the request is shed *immediately*
// with a Retry-After estimate — a fast, honest 429 beats a slow timeout
// for every client that can retry elsewhere. Shedding is priority-aware:
// low-priority (batch/backfill) traffic is refused at half the queue
// depth that interactive traffic is, so the queue that remains under
// overload is spent on the requests that care about latency.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"mint/internal/obs"
)

// Priority orders requests for load shedding. The zero value is
// PriorityNormal.
type Priority int

const (
	// PriorityNormal is the default interactive tier.
	PriorityNormal Priority = iota
	// PriorityLow marks batch/backfill traffic: first to be shed.
	PriorityLow
	// PriorityHigh marks traffic that may use the full queue.
	PriorityHigh
)

// String names the priority tier as it appears on the wire and in the
// access log.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityHigh:
		return "high"
	default:
		return "normal"
	}
}

// ParsePriority maps the request-level priority string ("", "low",
// "normal", "high") to a Priority.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "low":
		return PriorityLow, nil
	case "high":
		return PriorityHigh, nil
	default:
		return PriorityNormal, fmt.Errorf("unknown priority %q (want low|normal|high)", s)
	}
}

// AdmissionConfig bounds the server's front door. Zero fields take
// defaults: MaxInflight = GOMAXPROCS, MaxQueue = 4×MaxInflight,
// MaxWait = 10s.
type AdmissionConfig struct {
	// MaxInflight is the number of requests mining concurrently.
	MaxInflight int
	// MaxQueue is the number of admitted-but-waiting requests (the
	// high-priority bound; lower tiers shed earlier).
	MaxQueue int
	// MaxWait bounds how long one request may sit in the queue before
	// it is bounced with 503 (clients' own deadlines also apply).
	MaxWait time.Duration
}

func (c AdmissionConfig) normalized() AdmissionConfig {
	if c.MaxInflight < 1 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue < 1 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 10 * time.Second
	}
	return c
}

// ShedError is returned when the admission queue refuses a request; it
// carries the Retry-After estimate the HTTP layer surfaces.
type ShedError struct {
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
	// Queue reports the queue depth observed at shed time.
	Queue int
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission queue full (%d waiting); retry after %s", e.Queue, e.RetryAfter)
}

// ErrQueueTimeout is returned when a queued request exhausts
// AdmissionConfig.MaxWait (or its own deadline) before a slot frees.
var ErrQueueTimeout = errors.New("timed out waiting for an execution slot")

// ErrDraining is returned once the server has begun graceful drain.
var ErrDraining = errors.New("server is draining")

// Admission is the runtime state of the bounded front door: a token
// channel for the concurrency bound, an atomic waiter count for the
// queue bound, and an EWMA of service time feeding the Retry-After
// estimate. Each Front owns one, so the worker and the coordinator run
// the same shedding policy.
type Admission struct {
	cfg    AdmissionConfig
	tokens chan struct{}
	queued atomic.Int64
	// drainCh is closed when the server stops admitting; waiters parked
	// in the queue wake immediately instead of burning their MaxWait.
	drainCh  chan struct{}
	draining atomic.Bool
	// svcNanos is the EWMA of observed service times (ns), seeded lazily
	// by the first completion.
	svcNanos atomic.Int64
	obs      *obs.Registry
}

func NewAdmission(cfg AdmissionConfig, reg *obs.Registry) *Admission {
	cfg = cfg.normalized()
	a := &Admission{cfg: cfg, tokens: make(chan struct{}, cfg.MaxInflight), drainCh: make(chan struct{}), obs: reg}
	for i := 0; i < cfg.MaxInflight; i++ {
		a.tokens <- struct{}{}
	}
	return a
}

// queueLimit is the waiter bound for one priority tier: high uses the
// whole queue, normal three quarters, low half (always at least 1 so a
// configured queue never becomes a hard refusal for one tier).
func (a *Admission) queueLimit(pri Priority) int64 {
	q := a.cfg.MaxQueue
	var l int
	switch pri {
	case PriorityHigh:
		l = q
	case PriorityLow:
		l = q / 2
	default:
		l = (3*q + 3) / 4
	}
	if l < 1 {
		l = 1
	}
	return int64(l)
}

// RetryAfter estimates when a shed client should come back: the current
// backlog (waiters + a full in-flight set) times the service-time EWMA,
// divided across the worker slots, clamped to [1s, 60s].
func (a *Admission) RetryAfter() time.Duration {
	svc := time.Duration(a.svcNanos.Load())
	if svc <= 0 {
		svc = time.Second // cold start: no completions observed yet
	}
	backlog := float64(a.queued.Load()+int64(a.cfg.MaxInflight)) / float64(a.cfg.MaxInflight)
	d := time.Duration(backlog * float64(svc))
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// CombineRetryAfter is the Retry-After a scatter-gather coordinator
// should surface when shedding: the max of its own EWMA-derived
// estimate and the worst Retry-After its shards have recently reported.
// Fabricating a purely local estimate would be a lie under shard
// overload — the coordinator's own queue can be empty while every shard
// behind it is shedding with 30s hints, and a client told "1s" would
// just bounce off the shards again. Taking the max keeps the hint
// honest in both directions; the shard-reported value is trusted as-is
// (it came from the overloaded party's own EWMA), clamped only against
// going below the local floor.
func (a *Admission) CombineRetryAfter(shardWorst time.Duration) time.Duration {
	own := a.RetryAfter()
	if shardWorst > own {
		return shardWorst
	}
	return own
}

// Stop flips the admission layer into drain mode: every waiter wakes
// with ErrDraining and every later Acquire fails fast.
func (a *Admission) Stop() {
	if a.draining.CompareAndSwap(false, true) {
		close(a.drainCh)
	}
}

// Acquire blocks until the request holds an execution slot, then
// returns its release function. Failure modes: *ShedError (queue full
// for this priority), ErrQueueTimeout (waited too long), ErrDraining
// (server shutting down), or the context's own error. The release
// function feeds the service-time EWMA, so hold it for exactly the
// mining span.
func (a *Admission) Acquire(ctx context.Context, pri Priority) (release func(), err error) {
	if a.draining.Load() {
		a.obs.Counter("admission.rejected_draining").Add(1)
		return nil, ErrDraining
	}
	n := a.queued.Add(1)
	a.obs.Gauge("admission.queued").Set(n)
	unqueue := func() {
		a.obs.Gauge("admission.queued").Set(a.queued.Add(-1))
	}
	if n > a.queueLimit(pri) {
		unqueue()
		a.obs.Counter("admission.shed").Add(1)
		a.obs.Counter(fmt.Sprintf("admission.shed.pri_%d", pri)).Add(1)
		return nil, &ShedError{RetryAfter: a.RetryAfter(), Queue: int(n - 1)}
	}
	timer := time.NewTimer(a.cfg.MaxWait)
	defer timer.Stop()
	select {
	case <-a.tokens:
	case <-a.drainCh:
		unqueue()
		a.obs.Counter("admission.rejected_draining").Add(1)
		return nil, ErrDraining
	case <-ctx.Done():
		unqueue()
		a.obs.Counter("admission.ctx_expired").Add(1)
		return nil, ErrQueueTimeout
	case <-timer.C:
		unqueue()
		a.obs.Counter("admission.wait_timeout").Add(1)
		return nil, ErrQueueTimeout
	}
	unqueue()
	a.obs.Counter("admission.admitted").Add(1)
	inflight := a.obs.Gauge("admission.inflight")
	inflight.Add(1)
	start := time.Now()
	var once atomic.Bool
	return func() {
		if !once.CompareAndSwap(false, true) {
			return
		}
		a.observeService(time.Since(start))
		inflight.Add(-1)
		a.tokens <- struct{}{}
	}, nil
}

// observeService folds one completed request's wall time into the EWMA
// (α = 0.2) behind the Retry-After estimate.
func (a *Admission) observeService(d time.Duration) {
	a.obs.Histogram("admission.service_ns").Observe(int64(d))
	for {
		old := a.svcNanos.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = int64(0.8*float64(old) + 0.2*float64(d))
		}
		if next <= 0 {
			next = 1
		}
		if a.svcNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// RetryAfterSeconds rounds a Retry-After duration up to whole seconds
// for the HTTP header.
func RetryAfterSeconds(d time.Duration) int {
	return int(math.Ceil(d.Seconds()))
}
