// Command perfbench is the repository's end-to-end serving benchmark.
// It builds mintd's servers in process from the packages' public
// constructors, drives one of three workloads over loopback HTTP with
// closed-loop clients, checks every answer against a reference engine,
// and prints every metric by name and unit. The last line of standard
// output is the machine-readable result.
//
//	bash perfbench/run.sh --workload read-mix --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run of the same workload and seed: it repeats the load with
// spans on, probes the layers directly, prints the per-layer metrics,
// and writes the spans as Chrome trace JSON. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported metric: its name and unit, as BENCHMARK.json
// lists them.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run, every workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"count_p50_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"enum_p50_ms", "ms"},
}

// perLayer are the metrics of a traced run. A workload that does not
// cross a layer reports 0 for it.
var perLayer = []metric{
	{"datasets.generate_ms", "ms"},
	{"temporal.newgraph_ms", "ms"},
	{"registry.load_ms", "ms"},
	{"registry.loads", "count"},
	{"registry.hits", "count"},
	{"server.overhead_ms", "ms"},
	{"server.resp_bytes.count", "bytes"},
	{"server.resp_bytes.batch", "bytes"},
	{"server.resp_bytes.enum", "bytes"},
	{"mackey.count_ms", "ms"},
	{"mackey.nodes_expanded", "count"},
	{"comine.batch_ms", "ms"},
	{"comine.shared_ratio", "ratio"},
	{"enum.mine_ms", "ms"},
	{"edgelog.append_ms", "ms"},
	{"edgelog.fsyncs", "count"},
	{"stream.append_ms", "ms"},
	{"stream.fold_ms", "ms"},
	{"stream.integrations", "count"},
	{"replica.lag_p50_ms", "ms"},
	{"replica.lag_tail_ms", "ms"},
	{"replica.applied_records", "count"},
	{"gather.shard_call_ms", "ms"},
	{"gather.shard_calls", "count"},
	{"gather.self_ms", "ms"},
	{"shard.imbalance", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles", "count"},
	{"obs.trace_overhead", "ratio"},
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(options) (*Result, error){
	"read-mix":    runRead,
	"coord-read":  runRead,
	"ingest-live": runIngest,
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times the topology is built (the last one
	// serves the run); setup_s is their median.
	setups int
	// dir holds the run's files (WAL directories, the span dump), under
	// the checkout's .bench_build.
	dir string
}

// duration is the length of one load phase. A traced run splits
// --seconds between its untraced and its traced phase, so it takes as
// long as an untraced run.
func (o options) duration() time.Duration {
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	return d
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "read-mix | coord-read | ingest-live")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: fixes every request the clients send")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the measured load phase")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span dump")
	flag.Parse()
	o.trace = *trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload read-mix|coord-read|ingest-live --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// Five set-ups give setup_s a steady median; ingest-live's set-up
	// fills a window, so three.
	o.setups = 5
	if o.workload == "ingest-live" {
		o.setups = 3
	}
	o.dir = filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fatal(err)
	}
	fmt.Printf("perfbench: %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0))
	res, err := run(o)
	if err != nil {
		fatal(err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Printf("fail_ratio %.4f (%d of %d requests failed; correct=%v)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted, res.Correct)
	line, err := res.output(defs)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// Result is one run's outcome.
type Result struct {
	Correct   bool
	Attempted int
	Failed    int
	values    map[string]float64
}

func (r *Result) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

// latencies sets the latency metrics: lat_* over the driving loop's
// samples, and the per-class medians over the read samples. Medians are
// medians of per-template medians; the tail is pooled over every
// sample.
func (r *Result) latencies(driving, reads []Sample) {
	r.set("lat_p50_ms", templateMedian(driving, nil))
	t := tailOf(latencies(driving, nil))
	r.set("lat_tail_ms", t.Value)
	note := ""
	if t.Short {
		note = " (too few samples for a trusted tail)"
	}
	fmt.Printf("lat_tail_ms is p%.0f over %d samples, %d beyond it%s\n", t.P*100, t.N, t.Beyond, note)
	for _, c := range []string{"count", "batch", "enum"} {
		keep := func(s Sample) bool { return s.Class == c }
		r.set(c+"_p50_ms", templateMedian(reads, keep))
		fmt.Printf("%s_p50_ms over %d samples\n", c, len(latencies(reads, keep)))
	}
}

// output prints every metric of defs in human form and returns the
// final JSON line. A metric the run did not set is a bug.
func (r *Result) output(defs []metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("%-26s %14.4f %s\n", d.name, v, d.unit)
		metrics[d.name] = value{jsonNumber(v), d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(b), err
}

// setRuntime sets the runtime metrics of a traced phase of ops requests.
func setRuntime(res *Result, before, after runtime.MemStats, ops int) {
	res.set("runtime.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(max(ops, 1)))
	res.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
}

// setFront sets the server-front metrics from traced samples: the
// median of (client round trip − server wall_ms), and the mean response
// size per read class.
func setFront(res *Result, samples []Sample) {
	var over []float64
	bytes := map[string][]float64{}
	for _, s := range samples {
		if s.Failed {
			continue
		}
		over = append(over, ms(s.Dur)-s.WallMS)
		bytes[s.Class] = append(bytes[s.Class], float64(s.Bytes))
	}
	res.set("server.overhead_ms", median(over))
	for _, c := range []string{"count", "batch", "enum"} {
		res.set("server.resp_bytes."+c, mean(bytes[c]))
	}
}

// setSpanMeans sets the metrics read straight off probe and set-up
// spans: the mean time of one dataset generation and one registry load,
// and the median of each probe.
func setSpanMeans(res *Result, rec *Recorder) {
	res.set("datasets.generate_ms", mean(rec.Durations("datasets.generate")))
	res.set("registry.load_ms", mean(rec.Durations("registry.load")))
	for name, span := range map[string]string{
		"mackey.count_ms":      "mackey.count",
		"comine.batch_ms":      "comine.batch",
		"enum.mine_ms":         "enum.mine",
		"edgelog.append_ms":    "edgelog.append",
		"stream.append_ms":     "stream.append",
		"temporal.newgraph_ms": "temporal.newgraph",
	} {
		res.set(name, median(rec.Durations(span)))
	}
	// The fold is what a stream append costs beyond its WAL append and
	// its graph rebuild.
	fold := 0.0
	if a := res.values["stream.append_ms"]; a > 0 {
		fold = a - res.values["edgelog.append_ms"] - res.values["temporal.newgraph_ms"]
	}
	res.set("stream.fold_ms", fold)
}

// writeTrace dumps the run's spans as Chrome trace JSON.
func writeTrace(rec *Recorder, o options) error {
	path := filepath.Join(o.dir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err := rec.WriteChrome(path); err != nil {
		return fmt.Errorf("writing span dump: %w", err)
	}
	fmt.Printf("span dump: %s (%d spans)\n", path, rec.Len())
	return nil
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// spansNamed returns the closed spans with any of the names.
func (r *Recorder) spansNamed(names ...string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
