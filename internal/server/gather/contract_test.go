package gather

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mint"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/server"
	"mint/internal/server/registry"
)

// The front contract suite: one table of request-contract checks run
// unchanged against a worker and against a coordinator over two
// workers. Both modes serve through server.Front, so every row must
// hold for both; a row that only one mode passes means the front has
// grown a per-mode special case.

// contractBodyLimit is the body limit both modes are configured with.
const contractBodyLimit = 4096

// frontEnv is one serving mode under the contract suite.
type frontEnv struct {
	url     string
	front   *server.Front
	backend server.Backend
	reg     *obs.Registry
	// routes is the mode's metric and root-span prefix.
	routes string
	// release unblocks every load of a "hold" dataset; loads of it
	// block until then, pinning whatever request triggered them.
	release func()
}

// holdLoader serves g under every name; loads of "hold" block until
// gate closes.
func holdLoader(g *mint.Graph, gate <-chan struct{}) registry.Loader {
	return func(ctx context.Context, name string) (*mint.Graph, error) {
		if name == "hold" {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return g, nil
	}
}

// contractAdmission admits one request and queues one more, so a third
// concurrent request sheds deterministically.
var contractAdmission = server.AdmissionConfig{MaxInflight: 1, MaxQueue: 1, MaxWait: 10 * time.Second}

func workerEnv(t *testing.T) *frontEnv {
	gate := make(chan struct{})
	reg := obs.New("mintd")
	s, ts := newWorker(t, nil, func(cfg *server.Config) {
		cfg.Loader = holdLoader(testGraph(), gate)
		cfg.Admission = contractAdmission
		cfg.MaxBodyBytes = contractBodyLimit
		cfg.Obs = reg
	})
	return &frontEnv{url: ts.URL, front: s.Front, backend: s, reg: reg, routes: "http",
		release: sync.OnceFunc(func() { close(gate) })}
}

func coordinatorEnv(t *testing.T) *frontEnv {
	gate := make(chan struct{})
	var urls []string
	for i := 0; i < 2; i++ {
		_, ts := newWorker(t, nil, func(cfg *server.Config) { cfg.Loader = holdLoader(testGraph(), gate) })
		urls = append(urls, ts.URL)
	}
	reg := obs.New("mintd")
	c, ts := newCoordinator(t, urls, func(cfg *Config) {
		cfg.Admission = contractAdmission
		cfg.MaxBodyBytes = contractBodyLimit
		cfg.Obs = reg
	})
	return &frontEnv{url: ts.URL, front: c.Front, backend: c, reg: reg, routes: "gather",
		release: sync.OnceFunc(func() { close(gate) })}
}

// send POSTs body (a string is sent verbatim) with the given headers
// and returns the status, headers, and raw response body.
func send(t *testing.T, url string, body any, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	raw, ok := body.(string)
	if !ok {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		raw = string(b)
	}
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// wantError checks a non-2xx answer: status, a non-empty error body,
// and — for overload and drain answers — a Retry-After header agreeing
// with the body and an X-Trace-Id.
func wantError(t *testing.T, tag string, status, want int, hdr http.Header, body []byte) {
	t.Helper()
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("%s: error body is not JSON: %v (%q)", tag, err, body)
	}
	if status != want {
		t.Fatalf("%s: status %d, want %d (%.120q)", tag, status, want, er.Error)
	}
	if er.Error == "" {
		t.Errorf("%s: %d with an empty error message", tag, status)
	}
	if want == http.StatusTooManyRequests || want == http.StatusServiceUnavailable {
		ra, err := strconv.Atoi(hdr.Get("Retry-After"))
		if err != nil || ra <= 0 || ra != er.RetryAfterSeconds {
			t.Errorf("%s: Retry-After header %q, body %d", tag, hdr.Get("Retry-After"), er.RetryAfterSeconds)
		}
		if hdr.Get("X-Trace-Id") == "" {
			t.Errorf("%s: %d without X-Trace-Id", tag, status)
		}
	}
}

// waitGauge polls a gauge of the env's registry until it reaches want.
func waitGauge(t *testing.T, e *frontEnv, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.reg.Snapshot().Gauges[name] != want {
		if time.Now().After(deadline) {
			t.Fatalf("gauge %s never reached %d", name, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// panicking is a Backend whose Count panics: the front's backstop must
// turn it into a 500 and a counter.
type panicking struct{ server.Backend }

func (panicking) Count(context.Context, *server.CountRequest, runctl.Budget) (*server.CountResponse, error) {
	panic("backend bug")
}

var plainCount = server.CountRequest{Dataset: "g", Motif: "M1", DeltaSeconds: testDelta}

// contractCases run in order against one env; drain is terminal, so it
// comes last.
var contractCases = []struct {
	name string
	run  func(t *testing.T, e *frontEnv)
}{
	{"count is exact", func(t *testing.T, e *frontEnv) {
		status, hdr, body := send(t, e.url+"/v1/count", plainCount, nil)
		var out server.CountResponse
		if err := json.Unmarshal(body, &out); err != nil || status != http.StatusOK {
			t.Fatalf("status %d, decode %v", status, err)
		}
		if want := mint.Count(testGraph(), mint.M1(testDelta)); !out.Exact || int64(out.Count) != want {
			t.Fatalf("answer %+v, want exact %d", out, want)
		}
		if out.TraceID == "" || out.TraceID != hdr.Get("X-Trace-Id") {
			t.Fatalf("body trace id %q vs header %q", out.TraceID, hdr.Get("X-Trace-Id"))
		}
	}},
	{"400 on bad JSON", func(t *testing.T, e *frontEnv) {
		status, hdr, body := send(t, e.url+"/v1/count", `{"dataset": "g",`, nil)
		wantError(t, "bad JSON", status, http.StatusBadRequest, hdr, body)
	}},
	{"400 on bad priority", func(t *testing.T, e *frontEnv) {
		req := plainCount
		req.Priority = "urgent"
		status, hdr, body := send(t, e.url+"/v1/count", req, nil)
		wantError(t, "bad priority", status, http.StatusBadRequest, hdr, body)
	}},
	{"400 on enumerate limit <= 0", func(t *testing.T, e *frontEnv) {
		for _, limit := range []int{0, -3} {
			status, hdr, body := send(t, e.url+"/v1/enumerate",
				server.EnumerateRequest{Dataset: "g", Motif: "M1", DeltaSeconds: testDelta, Limit: limit}, nil)
			wantError(t, fmt.Sprintf("limit %d", limit), status, http.StatusBadRequest, hdr, body)
		}
	}},
	{"413 on an oversized body", func(t *testing.T, e *frontEnv) {
		req := plainCount
		req.MotifSpec = strings.Repeat("x", contractBodyLimit)
		for _, path := range []string{"/v1/count", "/v1/enumerate", "/v1/profile", "/v1/datasetinfo"} {
			status, hdr, body := send(t, e.url+path, req, nil)
			wantError(t, path, status, http.StatusRequestEntityTooLarge, hdr, body)
		}
	}},
	{"429 when shed", func(t *testing.T, e *frontEnv) {
		// One request pinned mid-load holds the only slot, a second
		// waits in the one-deep queue, and a third must shed.
		hold := server.CountRequest{Dataset: "hold", Motif: "M1", DeltaSeconds: testDelta}
		var wg sync.WaitGroup
		statuses := make([]int, 2)
		for i, gauge := range []string{"admission.inflight", "admission.queued"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				statuses[i], _, _ = send(t, e.url+"/v1/count", hold, nil)
			}()
			waitGauge(t, e, gauge, 1)
		}
		status, hdr, body := send(t, e.url+"/v1/count", plainCount, nil)
		e.release()
		wg.Wait()
		wantError(t, "shed", status, http.StatusTooManyRequests, hdr, body)
		for i, s := range statuses {
			if s != http.StatusOK {
				t.Errorf("held request %d: status %d, want 200 once released", i, s)
			}
		}
		if n := e.reg.Snapshot().Counter(e.routes + ".count.shed"); n != 1 {
			t.Errorf("%s.count.shed = %d, want 1", e.routes, n)
		}
	}},
	{"traceparent is honoured and echoed", func(t *testing.T, e *frontEnv) {
		const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
		status, hdr, body := send(t, e.url+"/v1/count", plainCount,
			map[string]string{"traceparent": "00-" + traceID + "-00f067aa0ba902b7-01"})
		var out server.CountResponse
		if err := json.Unmarshal(body, &out); err != nil || status != http.StatusOK {
			t.Fatalf("status %d, decode %v", status, err)
		}
		if hdr.Get("X-Trace-Id") != traceID || out.TraceID != traceID {
			t.Fatalf("trace id header %q body %q, want %q", hdr.Get("X-Trace-Id"), out.TraceID, traceID)
		}
	}},
	{"X-Request-ID shapes the trace id", func(t *testing.T, e *frontEnv) {
		hexID := strings.Repeat("ab", 16)
		_, hdr, body := send(t, e.url+"/v1/count", plainCount, map[string]string{"X-Request-ID": hexID})
		var out server.CountResponse
		if err := json.Unmarshal(body, &out); err != nil || hdr.Get("X-Trace-Id") != hexID || out.TraceID != hexID {
			t.Fatalf("32-hex request id not used directly: header %q, body %q (%v)", hdr.Get("X-Trace-Id"), out.TraceID, err)
		}
		_, h1, _ := send(t, e.url+"/v1/count", plainCount, map[string]string{"X-Request-ID": "my-request-7"})
		_, h2, _ := send(t, e.url+"/v1/count", plainCount, map[string]string{"X-Request-ID": "my-request-7"})
		if h1.Get("X-Trace-Id") == "" || h1.Get("X-Trace-Id") != h2.Get("X-Trace-Id") {
			t.Fatalf("same X-Request-ID gave trace ids %q and %q", h1.Get("X-Trace-Id"), h2.Get("X-Trace-Id"))
		}
	}},
	{"/debug/trace returns the request's trace", func(t *testing.T, e *frontEnv) {
		_, hdr, _ := send(t, e.url+"/v1/count", plainCount, nil)
		status, body := get(t, e.url+"/debug/trace/"+hdr.Get("X-Trace-Id"))
		if status != http.StatusOK {
			t.Fatalf("trace dump status %d", status)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("not valid Chrome trace JSON: %v", err)
		}
		var roots, waits int
		for _, ev := range doc.TraceEvents {
			switch {
			case ev.Ph != "X":
			case ev.Name == e.routes+".count":
				roots++
			case ev.Name == "admission.wait":
				waits++
			}
		}
		if roots != 1 || waits == 0 {
			t.Fatalf("trace holds %d %s.count roots and %d admission.wait spans, want 1 and some", roots, e.routes, waits)
		}
		if status, _ := get(t, e.url+"/debug/trace/"+strings.Repeat("0", 32)); status != http.StatusNotFound {
			t.Fatalf("unknown trace id: status %d, want 404", status)
		}
	}},
	{"/metrics lints clean", func(t *testing.T, e *frontEnv) {
		status, body := get(t, e.url+"/metrics")
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		if _, err := obs.LintPrometheus(string(body)); err != nil {
			t.Fatalf("/metrics fails exposition lint: %v", err)
		}
		if want := "mintd_" + e.routes + "_count_requests "; !bytes.Contains(body, []byte(want)) {
			t.Fatalf("/metrics missing %q", want)
		}
	}},
	{"panicking backend answers 500", func(t *testing.T, e *frontEnv) {
		reg := obs.New("mintd")
		f := server.NewFront(panicking{e.backend}, server.FrontConfig{Routes: e.routes, Drain: e.routes, Obs: reg})
		ts := httptest.NewServer(f.Handler())
		defer ts.Close()
		status, hdr, body := send(t, ts.URL+"/v1/count", plainCount, nil)
		wantError(t, "panic", status, http.StatusInternalServerError, hdr, body)
		if n := reg.Snapshot().Counter(e.routes + ".count.panics"); n != 1 {
			t.Fatalf("%s.count.panics = %d, want 1", e.routes, n)
		}
	}},
	{"drain flips readiness and refuses work", func(t *testing.T, e *frontEnv) {
		for _, path := range []string{"/healthz", "/readyz"} {
			if status, body := get(t, e.url+path); status != http.StatusOK {
				t.Fatalf("%s = %d (%s), want 200", path, status, body)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.front.Drain(ctx); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		if status, _ := get(t, e.url+"/readyz"); status != http.StatusServiceUnavailable {
			t.Fatalf("draining /readyz = %d, want 503", status)
		}
		if status, _ := get(t, e.url+"/healthz"); status != http.StatusOK {
			t.Fatalf("draining /healthz = %d, want 200 (the process is still alive)", status)
		}
		hexID := strings.Repeat("cd", 16)
		status, hdr, body := send(t, e.url+"/v1/count", plainCount, map[string]string{"X-Request-ID": hexID})
		wantError(t, "draining", status, http.StatusServiceUnavailable, hdr, body)
		if hdr.Get("X-Trace-Id") != hexID {
			t.Fatalf("draining 503 lost the request id: %q", hdr.Get("X-Trace-Id"))
		}
		if err := e.front.Drain(ctx); err == nil {
			t.Fatal("second Drain succeeded; want an error")
		}
	}},
}

func TestFrontContract(t *testing.T) {
	for _, mode := range []struct {
		name string
		env  func(*testing.T) *frontEnv
	}{{"worker", workerEnv}, {"coordinator", coordinatorEnv}} {
		t.Run(mode.name, func(t *testing.T) {
			e := mode.env(t)
			t.Cleanup(e.release)
			for _, tc := range contractCases {
				if !t.Run(tc.name, func(t *testing.T) { tc.run(t, e) }) {
					return
				}
			}
		})
	}
}
