package main

// Span recording for the traced run. Spans are taken only here, in the
// benchmark: around its own calls into each layer's public functions,
// and on the coordinator's shard transport (gather.Config.Client). They
// stay in memory and are written out once, as Chrome trace JSON, when
// the run ends. A nil *Recorder records nothing, so the untraced run
// shares every code path with the traced one.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mint/internal/obs"
)

// span is one recorded interval. Parent is 0 for a root span; Trace
// ties a client request to the shard calls it caused.
type span struct {
	Name   string
	ID     int64
	Parent int64
	Trace  string
	Lane   string
	Start  time.Time
	End    time.Time
	Args   map[string]string
}

// Recorder keeps spans in memory while switched on. Safe for
// concurrent use.
type Recorder struct {
	on      atomic.Bool
	mu      sync.Mutex
	base    time.Time
	spans   []span
	next    int64
	byTrace map[string]int64 // client trace id -> client span id
}

// NewRecorder starts an empty recorder, switched on.
func NewRecorder() *Recorder {
	r := &Recorder{base: time.Now(), byTrace: map[string]int64{}}
	r.on.Store(true)
	return r
}

// SetOn switches recording on or off (nil-safe).
func (r *Recorder) SetOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// On reports whether spans are being recorded.
func (r *Recorder) On() bool { return r != nil && r.on.Load() }

// Span is an open span; End closes it. Methods are nil-safe.
type Span struct {
	r  *Recorder
	sp span
}

// Begin opens a span on lane (the Chrome trace thread it renders on).
func (r *Recorder) Begin(name, lane string, parent int64, trace string) *Span {
	if !r.On() {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	if trace != "" && parent == 0 {
		if p, ok := r.byTrace[trace]; ok {
			parent = p
		} else {
			r.byTrace[trace] = id
		}
	}
	r.mu.Unlock()
	return &Span{r: r, sp: span{Name: name, ID: id, Parent: parent, Trace: trace, Lane: lane, Start: time.Now()}}
}

// ID is the span's id (0 on a nil span).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.sp.ID
}

// Set attaches an argument.
func (s *Span) Set(k, v string) {
	if s == nil {
		return
	}
	if s.sp.Args == nil {
		s.sp.Args = map[string]string{}
	}
	s.sp.Args[k] = v
}

// End closes the span and stores it.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.sp.End = time.Now()
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, s.sp)
	s.r.mu.Unlock()
}

// Durations returns the durations (ms) of every closed span named name.
func (r *Recorder) Durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, ms(s.End.Sub(s.Start)))
		}
	}
	return out
}

// Children returns the closed spans named name whose parent is id.
func (r *Recorder) Children(id int64, name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Parent == id && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Len is the number of closed spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// chromeEvent is one Chrome trace_event "complete" event.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome writes every span as Chrome trace JSON (load it in
// chrome://tracing or Perfetto). Lanes become threads; span id, parent
// id and trace id ride in args.
func (r *Recorder) WriteChrome(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	lanes := map[string]int{}
	events := make([]chromeEvent, 0, len(spans)+8)
	for _, s := range spans {
		tid, ok := lanes[s.Lane]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Lane] = tid
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]string{"name": s.Lane}})
		}
		args := map[string]string{"span": itoa(s.ID)}
		if s.Parent != 0 {
			args["parent"] = itoa(s.Parent)
		}
		if s.Trace != "" {
			args["trace"] = s.Trace
		}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: tid,
			TS:   float64(s.Start.Sub(r.base).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shardTransport wraps the coordinator's shard client: one
// "gather.shard_call" span per shard request, from send until the
// coordinator closes the response body, parented on the client request
// whose trace id the coordinator propagated in traceparent.
type shardTransport struct {
	base http.RoundTripper
	rec  *Recorder
}

func (t *shardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tc, _ := obs.ParseTraceparent(req.Header.Get("traceparent"))
	sp := t.rec.Begin("gather.shard_call", "shard "+req.URL.Host, 0, tc.TraceID)
	if sp == nil {
		return t.base.RoundTrip(req)
	}
	sp.Set("path", req.URL.Path)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.Set("error", err.Error())
		sp.End()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	sp   *Span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.End)
	return err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func itoa(v int64) string { return strconv.FormatInt(v, 10) }
