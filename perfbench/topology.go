package main

// In-process mintd topologies. Every server is built from the public
// constructors (server.New, gather.New, server.Config.Ingest with
// Follow) and mounted exactly as cmd/mintd/main.go mounts them, each on
// its own loopback listener; the flag defaults of cmd/mintd are
// restated in workerConfig and coordConfig.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"mint/internal/datasets"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/server"
	"mint/internal/server/gather"
	"mint/internal/server/registry"
	"mint/internal/temporal"
)

// scale is the Table I scale every served dataset is generated at.
const scale = 0.05

// serving is what node needs from a worker or a coordinator.
type serving interface {
	Handler() http.Handler
	Drain(ctx context.Context) error
}

// node is one running server on its own loopback listener.
type node struct {
	name   string
	URL    string
	srv    serving
	reg    *obs.Registry
	worker *server.Server // nil for a coordinator
	http   *http.Server
	done   chan error
}

// start mounts srv as cmd/mintd does and serves it on 127.0.0.1:0.
func start(name string, srv serving, reg *obs.Registry) (*node, error) {
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	obs.AttachDebug(mux, reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen for %s: %w", name, err)
	}
	n := &node{name: name, URL: "http://" + ln.Addr().String(), srv: srv, reg: reg,
		http: &http.Server{Handler: mux}, done: make(chan error, 1)}
	n.worker, _ = srv.(*server.Server)
	go func() { n.done <- n.http.Serve(ln) }()
	return n, nil
}

// stop drains the server, then closes its listener and waits for Serve
// to return.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	derr := n.srv.Drain(ctx)
	serr := n.http.Shutdown(ctx)
	if err := <-n.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	if err := errors.Join(derr, serr); err != nil {
		return fmt.Errorf("stopping %s: %w", n.name, err)
	}
	return nil
}

// tracingLoader is the registry.Loader every worker gets: Table I names
// generated at scale, each generation a "datasets.generate" span.
func tracingLoader(rec *Recorder) registry.Loader {
	return func(ctx context.Context, name string) (*temporal.Graph, error) {
		spec, err := datasets.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", server.ErrUnknownDataset, err)
		}
		sp := rec.Begin("datasets.generate", "setup", 0, "")
		sp.Set("dataset", name)
		defer sp.End()
		return datasets.Load(spec, "", scale)
	}
}

// workerConfig is cmd/mintd's worker defaults with the benchmark's
// loader and registry.
func workerConfig(rec *Recorder, reg *obs.Registry) server.Config {
	return server.Config{
		Scale:             scale,
		Loader:            tracingLoader(rec),
		RegistryMaxBytes:  1 << 30,
		Caps:              runctl.Caps{DefaultTimeout: 10 * time.Second, MaxTimeout: time.Minute},
		Admission:         server.AdmissionConfig{MaxWait: 10 * time.Second},
		Breaker:           server.BreakerConfig{Threshold: 3, Cooldown: 30 * time.Second},
		EnumerateMaxLimit: 1000,
		Obs:               reg,
		TraceCapacity:     256,
	}
}

// coordConfig is cmd/mintd's coordinator defaults over shards.
func coordConfig(shards []string, client *http.Client, reg *obs.Registry) gather.Config {
	return gather.Config{
		Shards:            shards,
		Client:            client,
		MaxAttempts:       3,
		MergeMargin:       200 * time.Millisecond,
		Caps:              runctl.Caps{DefaultTimeout: 10 * time.Second, MaxTimeout: time.Minute},
		Admission:         server.AdmissionConfig{MaxWait: 10 * time.Second},
		Breaker:           server.BreakerConfig{Threshold: 3, Cooldown: 30 * time.Second},
		EnumerateMaxLimit: 1000,
		Obs:               reg,
		TraceCapacity:     256,
	}
}

// Topology is the set of servers one workload runs against. Front is
// where the read client sends; nodes stop in order (fronts first).
type Topology struct {
	Front *node
	Nodes []*node
}

func (t *Topology) stop() error {
	var errs []error
	for _, n := range t.Nodes {
		errs = append(errs, n.stop())
	}
	return errors.Join(errs...)
}

// counter sums one obs counter over every node of the topology.
func (t *Topology) counter(name string) int64 {
	var v int64
	for _, n := range t.Nodes {
		v += n.reg.Snapshot().Counter(name)
	}
	return v
}

// startWorker builds and serves one worker.
func startWorker(name string, cfg server.Config) (*node, error) {
	return start(name, server.New(cfg), cfg.Obs)
}

// readMixTopology is one worker with mintd defaults: per-request mining
// uses every core.
func readMixTopology(rec *Recorder) (*Topology, error) {
	w, err := startWorker("worker", workerConfig(rec, obs.New("mintd")))
	if err != nil {
		return nil, err
	}
	return &Topology{Front: w, Nodes: []*node{w}}, nil
}

// coordTopology is a coordinator over two full-data workers, each
// mining one request with one worker, so one fanned-out request fills
// both cores as in read-mix.
func coordTopology(rec *Recorder) (*Topology, error) {
	t := &Topology{}
	var urls []string
	for i := 0; i < 2; i++ {
		cfg := workerConfig(rec, obs.New(fmt.Sprintf("mintd-shard%d", i)))
		cfg.Workers = 1
		w, err := startWorker(fmt.Sprintf("shard%d", i), cfg)
		if err != nil {
			return nil, errors.Join(err, t.stop())
		}
		t.Nodes = append(t.Nodes, w)
		urls = append(urls, w.URL)
	}
	client := &http.Client{}
	if rec != nil {
		client.Transport = &shardTransport{base: http.DefaultTransport.(*http.Transport).Clone(), rec: rec}
	}
	reg := obs.New("mintd-coord")
	c, err := gather.New(coordConfig(urls, client, reg))
	if err != nil {
		return nil, errors.Join(err, t.stop())
	}
	front, err := start("coordinator", c, reg)
	if err != nil {
		return nil, errors.Join(err, t.stop())
	}
	t.Front = front
	t.Nodes = append([]*node{front}, t.Nodes...)
	return t, nil
}
