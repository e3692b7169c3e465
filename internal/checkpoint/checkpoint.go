// Package checkpoint provides crash-safe progress snapshots for long
// mining runs. The parallel miner's unit of restartable work is the
// time-partitioned root chunk (mackey.partitionRoots): chunks are mutually
// independent complete search trees, so a run that records which chunks
// finished — plus each chunk's partial counts — can be killed at any
// instant and resumed count-identically by mining only the missing chunks
// and merging.
//
// The on-disk format is versioned JSON (Schema "mint.checkpoint/v1"),
// written via temp-file + fsync + rename (internal/atomicio), so a crash
// mid-write leaves the previous good snapshot intact. A checkpoint is
// bound to its run by a fingerprint (graph and motif identity plus the
// chunk boundaries); Load rejects snapshots whose fingerprint does not
// match the run being resumed, so a stale file can never silently corrupt
// counts.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"mint/internal/atomicio"
)

// Schema identifies the checkpoint JSON layout; bump on incompatible
// changes so resume can reject snapshots from older binaries.
const Schema = "mint.checkpoint/v1"

// Chunk records one completed chunk: its index in the bounds table, its
// match count, and an engine-specific payload (the mackey miner stores its
// full per-chunk Stats there) merged back on resume.
type Chunk struct {
	Index   int             `json:"index"`
	Matches int64           `json:"matches"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Poison records a chunk quarantined by the supervisor: it failed
// MaxAttempts times and was excluded from the run rather than retried
// forever. Resume does not re-mine poisoned chunks unless the caller
// clears them.
type Poison struct {
	Index    int    `json:"index"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
}

// File is one checkpoint snapshot.
type File struct {
	Schema      string `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	// Bounds are the chunk boundaries of the partitioned root space
	// (len = chunks+1). Resume reuses them verbatim, so a resumed run is
	// chunk-compatible regardless of its worker count.
	Bounds   []int64  `json:"bounds"`
	Chunks   []Chunk  `json:"chunks"`
	Poisoned []Poison `json:"poisoned,omitempty"`
}

// Done returns the set of completed chunk indices.
func (f *File) Done() map[int]bool {
	out := make(map[int]bool, len(f.Chunks))
	for _, c := range f.Chunks {
		out[c.Index] = true
	}
	return out
}

// Load reads and validates a checkpoint: the schema must match, and when
// fingerprint is non-empty it must match too. A missing file returns
// (nil, nil) — "nothing to resume" is not an error.
func Load(path, fingerprint string) (*File, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("checkpoint: parsing %s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("checkpoint: %s has schema %q, want %q", path, f.Schema, Schema)
	}
	if fingerprint != "" && f.Fingerprint != fingerprint {
		return nil, fmt.Errorf("checkpoint: %s was written for a different run (fingerprint %q, want %q)",
			path, f.Fingerprint, fingerprint)
	}
	for _, c := range f.Chunks {
		if c.Index < 0 || c.Index >= len(f.Bounds)-1 {
			return nil, fmt.Errorf("checkpoint: %s records chunk %d outside its %d-chunk bounds",
				path, c.Index, len(f.Bounds)-1)
		}
	}
	return &f, nil
}

// Writer accumulates chunk completions and flushes them atomically to one
// path. All methods are safe for concurrent use and nil-receiver-safe, so
// the supervisor calls them unconditionally whether or not checkpointing
// is enabled.
type Writer struct {
	mu          sync.Mutex
	path        string
	every       int
	minInterval time.Duration
	lastFlush   time.Time
	pending     int
	f           File
}

// NewWriter starts a checkpoint writer for a fresh run. every controls
// flush granularity: the snapshot is rewritten after that many new chunk
// completions (and always on Flush); values < 1 mean 1.
func NewWriter(path, fingerprint string, bounds []int64, every int) *Writer {
	if every < 1 {
		every = 1
	}
	return &Writer{
		path:  path,
		every: every,
		f:     File{Schema: Schema, Fingerprint: fingerprint, Bounds: bounds},
	}
}

// SetMinInterval rate-limits MarkDone-triggered flushes: once a flush
// lands, further count-triggered flushes are suppressed for d. Each
// flush is an fsync'd file rewrite, so on fast workloads an unthrottled
// writer can spend more time in fsync than mining; the crash-safety
// cost is bounded — at most d of completed work can need re-mining.
// MarkPoisoned and Flush ignore the throttle. d <= 0 disables it.
// Returns the writer for chaining; not safe to call concurrently with
// marks.
func (w *Writer) SetMinInterval(d time.Duration) *Writer {
	if w != nil {
		w.minInterval = d
	}
	return w
}

// NewWriterFrom is NewWriter seeded with a loaded snapshot, so a resumed
// run's flushes carry the chunks completed by previous attempts.
func NewWriterFrom(path string, prev *File, every int) *Writer {
	w := NewWriter(path, prev.Fingerprint, prev.Bounds, every)
	w.f.Chunks = append(w.f.Chunks, prev.Chunks...)
	w.f.Poisoned = append(w.f.Poisoned, prev.Poisoned...)
	return w
}

// MarkDone records one completed chunk; payload (may be nil) is marshaled
// into the chunk record. The snapshot is flushed when the pending count
// reaches the writer's granularity.
func (w *Writer) MarkDone(index int, matches int64, payload any) error {
	if w == nil {
		return nil
	}
	var raw json.RawMessage
	if payload != nil {
		data, err := json.Marshal(payload)
		if err != nil {
			return fmt.Errorf("checkpoint: marshaling chunk %d payload: %w", index, err)
		}
		raw = data
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.f.Chunks = append(w.f.Chunks, Chunk{Index: index, Matches: matches, Payload: raw})
	w.pending++
	if w.pending >= w.every &&
		(w.minInterval <= 0 || time.Since(w.lastFlush) >= w.minInterval) {
		return w.flushLocked()
	}
	return nil
}

// MarkPoisoned records a quarantined chunk and flushes immediately —
// poisoning is rare and load-bearing for resume decisions.
func (w *Writer) MarkPoisoned(index, attempts int, errMsg string) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.f.Poisoned = append(w.f.Poisoned, Poison{Index: index, Attempts: attempts, Error: errMsg})
	return w.flushLocked()
}

// Flush writes any pending state. Call once at run end so the final
// snapshot records every completed chunk.
func (w *Writer) Flush() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *Writer) flushLocked() error {
	w.pending = 0
	w.lastFlush = time.Now()
	data, err := json.MarshalIndent(&w.f, "", " ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(w.path, append(data, '\n'), 0o644)
}

// Fingerprint renders a domain-tagged identity string from a slice of
// ints: "<domain>/<16 hex digits>". Two callers share it: the
// supervisor's run fingerprints (binding a checkpoint to its graph,
// motif, and partition) and the sharding layer's dataset-identity
// fingerprints (letting a scatter-gather coordinator refuse to merge
// counts from shards that are not serving the same data).
func Fingerprint(domain string, ints []int64) string {
	return FormatFingerprint(domain, HashInts(ints))
}

// FormatFingerprint renders a digest as "<domain>/<16 hex digits>", the
// form Fingerprint returns.
func FormatFingerprint(domain string, digest uint64) string {
	return fmt.Sprintf("%s/%016x", domain, digest)
}

// Hasher is a streaming FNV-1a accumulator over int64s, each folded as
// its eight little-endian bytes. Feeding it xs one at a time gives
// HashInts(xs), so large inputs (whole edge lists) hash in place
// without first being flattened into a slice.
type Hasher uint64

// NewHasher returns an accumulator at the FNV-1a offset basis.
func NewHasher() Hasher { return 14695981039346656037 }

// Add folds x into the digest.
func (h *Hasher) Add(x int64) {
	v := uint64(*h)
	for s := 0; s < 64; s += 8 {
		v ^= uint64(byte(x >> s))
		v *= 1099511628211
	}
	*h = Hasher(v)
}

// Sum64 returns the digest of everything added so far.
func (h Hasher) Sum64() uint64 { return uint64(h) }

// HashInts folds a slice of ints into a stable 64-bit FNV-1a digest;
// used to bind chunk boundaries into run fingerprints.
func HashInts(xs []int64) uint64 {
	h := NewHasher()
	for _, x := range xs {
		h.Add(x)
	}
	return h.Sum64()
}
