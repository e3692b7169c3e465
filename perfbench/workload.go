package main

// Request generation. Every request a run sends comes from here, as a
// pure function of the workload seed and a few facts about the served
// datasets (time extents, the enumerate template's match total), so two
// runs with one seed replay byte-identical request bodies.
//
// read-mix and coord-read replay rounds: one round holds every template
// exactly once, in a seeded order. Whole rounds give every run the same
// request composition, so per-class medians compare across seeds; the
// seed moves the order, the stackoverflow root windows, and the
// enumerate offsets.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"mint/internal/server"
)

const (
	hour = int64(3600)
	day  = 24 * hour

	// enumLimit is the page size of every enumerate request.
	enumLimit = 500
	// soWindow is the width of a stackoverflow root window: wide enough
	// to reach into hub lists, narrow enough to bound one request's cost.
	soWindow = 4 * day
	// enumPerRound and soBatchPerRound are seeded draws per round.
	enumPerRound    = 3
	soBatchPerRound = 2
)

var evalMotifs = []string{"M1", "M2", "M3", "M4"}

// Request is one generated client request.
type Request struct {
	// Template names the request shape, e.g. "count/wiki-talk/M1/3600".
	Template string
	// Class is "count", "batch" or "enum"; per-class medians key on it.
	Class   string
	Dataset string
	Motif   string   // count, enum
	Motifs  []string // batch
	Delta   int64
	// Window restricts roots (stackoverflow templates only).
	Window *server.TimeWindow
	// Offset is the enumerate page's first match.
	Offset int64
}

// Env carries the dataset facts the generator needs.
type Env struct {
	// SOMin and SOMax bound stackoverflow's timestamps (inclusive).
	SOMin, SOMax int64
	// EnumTotal is the match total of the enumerate template
	// (wiki-talk M1, δ = 1 h); offsets stay below EnumTotal-enumLimit.
	EnumTotal int64
}

// goldenFrac is the fractional part of the golden ratio: the additive
// recurrence u0 + k·goldenFrac (mod 1) spreads any prefix of draws
// evenly over [0, 1), so short runs still sample windows and offsets
// across the whole range.
const goldenFrac = 0.6180339887498949

// lowDiscrepancy returns the k-th point of the seeded recurrence.
func lowDiscrepancy(seed int64, stream, k int) float64 {
	u0 := rand.New(rand.NewSource(seed*31 + int64(stream))).Float64()
	_, f := math.Modf(u0 + float64(k)*goldenFrac)
	return f
}

// Round returns round r of the read sequence for seed. withWindows
// false is coord-read's round: the coordinator assigns root windows
// itself and answers 400 to a client window, so each root-windowed
// stackoverflow request becomes the same motif on superuser's whole
// graph, a mid-cost request the coordinator can serve, in the same
// place; the rest of the round is unchanged.
func Round(seed int64, env Env, r int, withWindows bool) []Request {
	var reqs []Request
	for _, ds := range []string{"email-eu", "wiki-talk"} {
		for _, d := range []int64{hour, 4 * hour} {
			for _, m := range evalMotifs {
				if ds == "wiki-talk" && m == "M4" && d == 4*hour {
					// ~110M matches, ~0.9 s alone: one such request
					// would set the run's throughput.
					continue
				}
				reqs = append(reqs, Request{
					Template: fmt.Sprintf("count/%s/%s/%d", ds, m, d),
					Class:    "count", Dataset: ds, Motif: m, Delta: d,
				})
			}
		}
	}
	// Batches: wiki-talk at δ = 4 h is left out with its M4 member.
	for _, b := range []struct {
		ds string
		d  int64
	}{{"email-eu", hour}, {"email-eu", 4 * hour}, {"wiki-talk", hour}} {
		reqs = append(reqs, Request{
			Template: fmt.Sprintf("batch/%s/%d", b.ds, b.d),
			Class:    "batch", Dataset: b.ds, Motifs: evalMotifs, Delta: b.d,
		})
	}
	for j := 0; j < enumPerRound; j++ {
		off := int64(0)
		if span := env.EnumTotal - enumLimit; span > 0 {
			off = int64(lowDiscrepancy(seed, 1, r*enumPerRound+j) * float64(span))
		}
		reqs = append(reqs, Request{
			Template: "enum/wiki-talk/M1/3600",
			Class:    "enum", Dataset: "wiki-talk", Motif: "M1", Delta: hour, Offset: off,
		})
	}
	k := 0
	window := func() *server.TimeWindow {
		start := env.SOMin
		if span := env.SOMax - env.SOMin - soWindow; span > 0 {
			per := len(evalMotifs) + soBatchPerRound
			start += int64(lowDiscrepancy(seed, 2, r*per+k) * float64(span))
		}
		k++
		return &server.TimeWindow{StartTS: start, EndTS: start + soWindow}
	}
	for _, m := range evalMotifs {
		reqs = append(reqs, Request{
			Template: "count/stackoverflow/" + m + "/3600/window",
			Class:    "count", Dataset: "stackoverflow", Motif: m, Delta: hour, Window: window(),
		})
	}
	for j := 0; j < soBatchPerRound; j++ {
		reqs = append(reqs, Request{
			Template: "batch/stackoverflow/3600/window",
			Class:    "batch", Dataset: "stackoverflow", Motifs: evalMotifs, Delta: hour, Window: window(),
		})
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	if !withWindows {
		for i, q := range reqs {
			if q.Window != nil {
				q.Dataset, q.Window = "superuser", nil
				q.Template = strings.Replace(strings.TrimSuffix(q.Template, "/window"), "stackoverflow", "superuser", 1)
				reqs[i] = q
			}
		}
	}
	return reqs
}

// Path is the endpoint the request goes to.
func (q Request) Path() string {
	if q.Class == "enum" {
		return "/v1/enumerate"
	}
	return "/v1/count"
}

// Body encodes the request. token maps an enumerate offset onto the
// target's page token (workers take the plain offset; the coordinator
// takes "shard:offset").
func (q Request) Body(token func(off int64) string) []byte {
	var v any
	switch q.Class {
	case "enum":
		er := server.EnumerateRequest{Dataset: q.Dataset, Motif: q.Motif, DeltaSeconds: q.Delta, Limit: enumLimit}
		if q.Offset > 0 {
			er.PageToken = token(q.Offset)
		}
		v = er
	case "batch":
		v = server.CountRequest{Dataset: q.Dataset, Motifs: q.Motifs, DeltaSeconds: q.Delta, RootWindow: q.Window}
	default:
		v = server.CountRequest{Dataset: q.Dataset, Motif: q.Motif, DeltaSeconds: q.Delta, RootWindow: q.Window}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and ints always encode
	}
	return b
}

// workerToken is a worker's page token: the plain match offset.
func workerToken(off int64) string { return strconv.FormatInt(off, 10) }

// coordToken builds the coordinator's merged page token for a global
// offset. The coordinator walks shard windows in order, so global
// offset off lies in shard 0 at off when off < shard0, else in shard 1
// at off-shard0 (shard0 = matches rooted in shard 0's window).
func coordToken(shard0 int64) func(int64) string {
	return func(off int64) string {
		if off < shard0 {
			return "0:" + strconv.FormatInt(off, 10)
		}
		return "1:" + strconv.FormatInt(off-shard0, 10)
	}
}

// BatchSizes returns the ingest writer's first n batch sizes, uniform
// in [64, 512].
func BatchSizes(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	out := make([]int, n)
	for i := range out {
		out[i] = 64 + rng.Intn(512-64+1)
	}
	return out
}

// ReaderMotif is the motif the ingest reader's i-th single count asks
// for: a seeded permutation of M1–M4 per four counts.
func ReaderMotif(seed int64, i int) string {
	rng := rand.New(rand.NewSource(seed*104_729 + int64(i/len(evalMotifs))))
	return evalMotifs[rng.Perm(len(evalMotifs))[i%len(evalMotifs)]]
}
