package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"
)

var testEnv = Env{SOMin: 0, SOMax: 12_000_000, EnumTotal: 44_396}

// sequence renders rounds [0, n) of a seed's read sequence as bytes.
func sequence(seed int64, n int, withWindows bool, token func(int64) string) []byte {
	var buf bytes.Buffer
	for r := 0; r < n; r++ {
		for _, q := range Round(seed, testEnv, r, withWindows) {
			buf.WriteString(q.Path())
			buf.Write(q.Body(token))
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

func TestSequenceDeterministic(t *testing.T) {
	for _, coord := range []bool{false, true} {
		token := workerToken
		if coord {
			token = coordToken(20_000)
		}
		a := sequence(7, 5, !coord, token)
		b := sequence(7, 5, !coord, token)
		if !bytes.Equal(a, b) {
			t.Fatalf("coord=%v: seed 7 produced two different sequences", coord)
		}
		if c := sequence(8, 5, !coord, token); bytes.Equal(a, c) {
			t.Fatalf("coord=%v: seeds 7 and 8 produced the same sequence", coord)
		}
	}
	if !bytes.Equal(encodeSizes(BatchSizes(3, 500)), encodeSizes(BatchSizes(3, 500))) {
		t.Fatal("ingest batch sizes differ for one seed")
	}
	if bytes.Equal(encodeSizes(BatchSizes(3, 500)), encodeSizes(BatchSizes(4, 500))) {
		t.Fatal("ingest batch sizes equal for two seeds")
	}
	for _, n := range BatchSizes(5, 1000) {
		if n < 64 || n > 512 {
			t.Fatalf("batch size %d outside [64, 512]", n)
		}
	}
}

func encodeSizes(s []int) []byte {
	b, _ := json.Marshal(s)
	return b
}

// coord-read replays read-mix's rounds with each root-windowed
// stackoverflow request swapped in place for the same motif on
// superuser, and everything else unchanged.
func TestCoordRoundSwapsWindowsForSuperuser(t *testing.T) {
	for r := 0; r < 4; r++ {
		full := Round(11, testEnv, r, true)
		coord := Round(11, testEnv, r, false)
		if len(coord) != len(full) {
			t.Fatalf("round %d: %d requests, want %d", r, len(coord), len(full))
		}
		for i, q := range full {
			want := q
			if q.Window != nil {
				want.Dataset, want.Window = "superuser", nil
			}
			if got := coord[i]; string(got.Body(workerToken)) != string(want.Body(workerToken)) {
				t.Fatalf("round %d request %d: %s, want %s", r, i, got.Body(workerToken), want.Body(workerToken))
			}
		}
	}
}

func TestRoundHoldsEveryTemplateOnce(t *testing.T) {
	counts := map[string]int{}
	for _, q := range Round(1, testEnv, 3, true) {
		counts[q.Template]++
		if q.Class == "enum" && (q.Offset < 0 || q.Offset > testEnv.EnumTotal-enumLimit) {
			t.Fatalf("enumerate offset %d outside [0, %d]", q.Offset, testEnv.EnumTotal-enumLimit)
		}
		if w := q.Window; w != nil && (w.StartTS < testEnv.SOMin || w.EndTS > testEnv.SOMax) {
			t.Fatalf("root window %+v outside stackoverflow's extent", *w)
		}
	}
	if counts["count/wiki-talk/M4/14400"] != 0 {
		t.Fatal("wiki-talk M4 at δ = 4 h must be left out")
	}
	if counts["enum/wiki-talk/M1/3600"] != enumPerRound || counts["batch/stackoverflow/3600/window"] != soBatchPerRound {
		t.Fatalf("seeded draws per round: %v", counts)
	}
	if counts["count/email-eu/M3/3600"] != 1 {
		t.Fatalf("fixed template missing or repeated: %v", counts)
	}
}

func TestCoordToken(t *testing.T) {
	tok := coordToken(100)
	for off, want := range map[int64]string{5: "0:5", 99: "0:99", 100: "1:0", 150: "1:50"} {
		if got := tok(off); got != want {
			t.Errorf("offset %d: token %q, want %q", off, got, want)
		}
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		short  bool
	}{
		{1000, 0.99, 10, false},
		{999, 0.95, 49, false},
		{200, 0.95, 10, false},
		{199, 0.90, 19, false},
		{100, 0.90, 10, false},
		{99, 0.90, 9, true},
	} {
		vals := make([]float64, tc.n)
		for i := range vals {
			vals[i] = float64(i + 1)
		}
		got := tailOf(vals)
		if got.P != tc.p || got.Beyond != tc.beyond || got.Short != tc.short || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want p=%v beyond=%d short=%v", tc.n, got, tc.p, tc.beyond, tc.short)
		}
		// Nearest rank: the value at rank ceil(p·n) is that rank itself.
		if want := float64(tc.n - tc.beyond); got.Value != want {
			t.Errorf("n=%d: tail value %v, want %v", tc.n, got.Value, want)
		}
	}
}

func TestFailuresMissLatencyLimits(t *testing.T) {
	var samples []Sample
	for i := 0; i < 10; i++ {
		samples = append(samples, Sample{Class: "count", Dur: time.Duration(i+1) * time.Millisecond, Failed: i >= 4})
	}
	if got := failures(samples); got != 6 {
		t.Fatalf("failures = %d, want 6", got)
	}
	lat := latencies(samples, nil)
	if len(lat) != len(samples) {
		t.Fatalf("failed samples dropped: %d latencies for %d attempts", len(lat), len(samples))
	}
	// Six of ten failed, so the median lands on a failure: infinite,
	// past any limit, although every failed request was fast.
	if p50 := percentile(lat, 0.5); !math.IsInf(p50, 1) {
		t.Fatalf("p50 = %v, want +Inf", p50)
	}
	res := &Result{}
	res.latencies(samples, samples)
	line, err := res.output([]metric{{"lat_p50_ms", "ms"}, {"count_p50_ms", "ms"}})
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("result line is not JSON: %v", err)
	}
	if v := out.Metrics["lat_p50_ms"].Value; v != math.MaxFloat64 {
		t.Fatalf("reported p50 %v, want the largest float", v)
	}
	// With one failure in ten, the median is a real latency.
	samples[9].Failed, samples[4].Failed, samples[5].Failed, samples[6].Failed, samples[7].Failed = false, false, false, false, false
	if p50 := percentile(latencies(samples, nil), 0.5); p50 != 5 {
		t.Fatalf("p50 = %v, want 5", p50)
	}
}

// A burst that slows a minority of each template's samples leaves the
// template median where it was; the pooled median moves. So does a
// change in how often each template occurs.
func TestTemplateMedianResistsBurstsAndMix(t *testing.T) {
	var samples []Sample
	for i, tmpl := range []string{"a", "b", "c", "d", "e"} {
		for k := 0; k < 10; k++ {
			slow := time.Duration(1)
			if k < 3 {
				slow = 3
			}
			samples = append(samples, Sample{Template: tmpl, Dur: slow * time.Duration(i+1) * time.Millisecond})
		}
	}
	if got := templateMedian(samples, nil); got != 3 {
		t.Fatalf("template median %v, want 3", got)
	}
	if pooled := percentile(latencies(samples, nil), 0.5); pooled == 3 {
		t.Fatal("test premise: the pooled median should move")
	}
	// Twice as many samples of the cheapest template: the pooled median
	// drops, the template median stays.
	for k := 0; k < 10; k++ {
		samples = append(samples, Sample{Template: "a", Dur: time.Millisecond})
	}
	if got := templateMedian(samples, nil); got != 3 {
		t.Fatalf("template median %v after a mix change, want 3", got)
	}
	// A template whose median request failed has an infinite median;
	// most templates failing is an infinite result.
	for i := range samples {
		if samples[i].Template != "a" && samples[i].Template != "b" {
			samples[i].Failed = true
		}
	}
	if got := templateMedian(samples, nil); !math.IsInf(got, 1) {
		t.Fatalf("template median %v with most templates failing, want +Inf", got)
	}
}

var sink []byte

func TestHeapMBIsReadAfterGC(t *testing.T) {
	base := heapMB()
	sink = make([]byte, 256<<20)
	for i := range sink {
		if i%4096 == 0 {
			sink[i] = 1
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if held := float64(ms.HeapInuse) / (1 << 20); held < base+200 {
		t.Fatalf("held heap %.0f MB, want at least %.0f", held, base+200)
	}
	sink = nil
	// The 256 MB are garbage now: a reading taken without a collection
	// would still include them.
	if after := heapMB(); after > base+64 {
		t.Fatalf("heapMB = %.0f MB after dropping 256 MB (base %.0f): garbage was counted", after, base)
	}
}

// The metric tables must match BENCHMARK.json: same names, same units,
// same workloads.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: code %v, BENCHMARK.json %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no driver", w.Name)
		}
	}
}
