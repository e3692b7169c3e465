// Package edgelog is the durability layer under mintd's streaming ingest
// path: a segmented append-only write-ahead log for temporal edges. An
// edge batch is acked only after it is framed (CRC32 + length), written
// to the active segment, and — under the default sync policy — fsynced;
// a process killed at any instant recovers by replaying the log, with a
// torn tail truncated to the last whole record and every other
// inconsistency surfaced as a loud, positioned error. Periodic snapshots
// (internal/atomicio, fingerprinted via internal/checkpoint) bound both
// replay time and disk use: segments fully covered by a snapshot are
// deleted.
//
// The log is also the idempotency ledger: each record carries the
// client's id and per-client sequence number, and Append refuses (as a
// clean duplicate, not an error) any batch whose client sequence is not
// beyond the last one durably applied — so a client that resends after
// a lost ack cannot double-insert edges.
package edgelog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mint/internal/atomicio"
	"mint/internal/faultinject"
	"mint/internal/obs"
	"mint/internal/temporal"
)

// Chaos sites evaluated by the log, in the -chaos grammar:
//
//	edgelog.append   before a record's bytes are written (key: record seq)
//	edgelog.fsync    before the post-append fsync (key: record seq)
//	edgelog.rotate   before a segment rotation (key: first seq of the new segment)
//	edgelog.replay   before each segment is replayed on Open (key: segment ordinal)
//	edgelog.compact  before snapshot + compaction (key: snapshot seq)
//
// An injected Error at append/fsync fails the append cleanly (the caller
// must not ack, the client retries, and the retry re-rolls the plan); an
// injected Panic exercises the server's panic backstop.

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero. Small enough that compaction is exercised in real deployments,
// large enough that rotation cost is noise.
const DefaultSegmentBytes = 4 << 20

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this size.
	// 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// SyncEvery is the fsync policy: 0 or 1 fsyncs every append (the
	// durable default), N>1 fsyncs every Nth append (bounded loss of the
	// last <N acked batches on power failure), SyncNever (-1) leaves
	// syncing to the OS (test/bulk-load only). Rotation and Close always
	// sync whatever is pending.
	SyncEvery int
	// Chaos, when non-nil, is evaluated at the edgelog.* sites above.
	Chaos *faultinject.Plan
	// Obs receives edgelog.* counters and gauges (nil-safe).
	Obs *obs.Registry
	// Progress, when non-nil, is called after each segment replayed by
	// Open, so a slow startup replay is distinguishable from a stuck one.
	Progress func(ReplayProgress)
}

// ReplayProgress is a point-in-time report of Open's segment replay.
type ReplayProgress struct {
	SegmentsDone  int   `json:"segments_done"`
	SegmentsTotal int   `json:"segments_total"`
	Records       int64 `json:"records"`
	Bytes         int64 `json:"bytes"`
}

// SyncNever disables per-append fsync entirely.
const SyncNever = -1

// ParseSyncPolicy parses the -ingest-sync flag grammar: "always" (every
// append), "none" (never), or a positive integer N (every Nth append).
func ParseSyncPolicy(s string) (int, error) {
	switch strings.TrimSpace(s) {
	case "", "always":
		return 1, nil
	case "none":
		return SyncNever, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("edgelog: bad sync policy %q (want \"always\", \"none\", or a positive integer)", s)
	}
	return n, nil
}

// ErrBroken is returned by every Append after the log failed to roll back
// a partial write: the on-disk tail state is unknown, so accepting more
// writes could interleave good records after garbage. Reopening the log
// (which re-runs torn-tail repair) is the only way out.
var ErrBroken = errors.New("edgelog: log is broken: a failed append could not be rolled back; reopen to repair")

type segment struct {
	name     string
	firstSeq uint64 // seq of the first record the segment may contain
}

// Log is an open edge WAL. All methods are safe for concurrent use; the
// single internal mutex makes appends totally ordered, which is what
// assigns the global record sequence.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	active   segment
	size     int64
	nextSeq  uint64
	epoch    uint64
	unsynced int
	broken   bool
	closed   bool
	segments []segment // includes active as the last entry
	clients  map[string]uint64
	attempts map[uint64]int // chaos retry ordinals per record seq
	buf      []byte
	// activeSynced is the durable (fsynced) byte length of the active
	// segment: WAL shipping reads no further, so a record never reaches
	// a follower before it would survive the primary's own crash.
	// SyncNever tracks the written length instead — that mode is
	// explicitly non-durable.
	activeSynced int64
}

// ReplayResult is what Open recovered from disk: the latest snapshot (nil
// when none), every record appended after it in seq order, and whether a
// damaged log tail was truncated — with the detail string saying exactly
// where and why, so callers can log it loudly.
type ReplayResult struct {
	Snapshot   *Snapshot
	Records    []Record
	Truncated  bool
	TruncateAt string
}

func segName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x.seg", firstSeq) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open loads (or creates) the log in dir: it reads the snapshot if one
// exists, replays every segment after it — repairing a torn tail in the
// final segment, refusing corruption anywhere else — and leaves the log
// positioned to append. The returned ReplayResult carries everything the
// caller needs to rebuild in-memory state.
func Open(dir string, opts Options) (*Log, ReplayResult, error) {
	var res ReplayResult
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncEvery == 0 {
		opts.SyncEvery = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, res, err
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		clients:  map[string]uint64{},
		attempts: map[uint64]int{},
	}

	snap, err := loadSnapshot(filepath.Join(dir, snapshotName))
	if err != nil {
		return nil, res, err
	}
	res.Snapshot = snap
	l.nextSeq = 1
	l.epoch = 1
	if snap != nil {
		l.nextSeq = snap.Seq + 1
		if snap.Epoch > 0 {
			l.epoch = snap.Epoch
		}
		for id, cs := range snap.Clients {
			l.clients[id] = cs
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, res, err
	}
	for _, e := range entries {
		if first, ok := parseSegName(e.Name()); ok {
			l.segments = append(l.segments, segment{name: e.Name(), firstSeq: first})
		}
	}
	sort.Slice(l.segments, func(i, j int) bool { return l.segments[i].firstSeq < l.segments[j].firstSeq })

	var replayedBytes int64
	for i, seg := range l.segments {
		if err := opts.Chaos.Fire("edgelog.replay", int64(i), 0); err != nil {
			return nil, res, err
		}
		last := i == len(l.segments)-1
		n, err := l.replaySegment(seg, last, &res)
		if err != nil {
			return nil, res, err
		}
		replayedBytes += n
		if opts.Progress != nil {
			opts.Progress(ReplayProgress{
				SegmentsDone:  i + 1,
				SegmentsTotal: len(l.segments),
				Records:       int64(len(res.Records)),
				Bytes:         replayedBytes,
			})
		}
	}

	// A crash between snapshot write and segment removal leaves segments
	// the snapshot fully covers. Replay skipped their records; finish the
	// interrupted compaction now (the snapshot is durable) instead of
	// re-skipping them on every future open.
	if snap != nil && len(l.segments) > 1 {
		kept := l.segments[:0]
		removed := 0
		for i, seg := range l.segments {
			covered := i+1 < len(l.segments) && l.segments[i+1].firstSeq <= snap.Seq+1
			if covered {
				if err := os.Remove(filepath.Join(dir, seg.name)); err != nil {
					return nil, res, err
				}
				removed++
				continue
			}
			kept = append(kept, seg)
		}
		l.segments = kept
		if removed > 0 {
			if err := atomicio.SyncDir(dir); err != nil {
				return nil, res, err
			}
			opts.Obs.Counter("edgelog.open_compact_deleted").Add(int64(removed))
		}
	}

	if len(l.segments) == 0 {
		if err := l.openFreshSegmentLocked(); err != nil {
			return nil, res, err
		}
	} else {
		// Reopen the validated final segment for appending. l.size was set
		// by replaySegment to the end of the last whole record.
		l.active = l.segments[len(l.segments)-1]
		f, err := os.OpenFile(filepath.Join(dir, l.active.name), os.O_WRONLY, 0o644)
		if err != nil {
			return nil, res, err
		}
		if _, err := f.Seek(l.size, 0); err != nil {
			f.Close()
			return nil, res, err
		}
		l.f = f
		// Everything replay validated is on disk and survived whatever
		// ended the previous process; treat it as durable for shipping.
		l.activeSynced = l.size
	}

	l.obsGauges()
	c := opts.Obs.Counter("edgelog.replay_records")
	c.Add(int64(len(res.Records)))
	if res.Truncated {
		opts.Obs.Counter("edgelog.replay_truncated").Add(1)
	}
	return l, res, nil
}

// replaySegment reads one segment, appending decoded records to res and
// advancing l.nextSeq. For the final segment it repairs a damaged tail by
// truncating the file; for earlier segments any failure is fatal. On
// return for the final segment, l.size is the validated append offset.
// The int return is the number of bytes scanned, for replay progress.
func (l *Log) replaySegment(seg segment, last bool, res *ReplayResult) (int64, error) {
	path := filepath.Join(l.dir, seg.name)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	damaged := func(off int64, err error) error {
		if !last {
			// A short or corrupt record in a non-final segment means records
			// acked after it replayed fine in later segments — truncating
			// here would silently unwrite the middle of the history.
			if errors.Is(err, ErrTornTail) {
				return &CorruptError{Segment: seg.name, Offset: off,
					Reason: fmt.Sprintf("segment ends mid-record but is not the last segment (%v)", err)}
			}
			return err
		}
		// Final segment: anything unreadable at the tail — torn frame or
		// flipped bytes — is repaired by truncating to the last whole
		// record. Acked-but-unsynced suffixes die here; that is the
		// SyncEvery contract, and the truncation is reported loudly.
		if terr := os.Truncate(path, off); terr != nil {
			return fmt.Errorf("edgelog: truncating damaged tail of %s at %d: %w (damage: %v)", seg.name, off, terr, err)
		}
		if serr := syncFileByName(path); serr != nil {
			return serr
		}
		if serr := atomicio.SyncDir(l.dir); serr != nil {
			return serr
		}
		res.Truncated = true
		res.TruncateAt = fmt.Sprintf("%s@%d: %v", seg.name, off, err)
		l.size = off
		return nil
	}

	if err := checkHeader(data, seg.name); err != nil {
		if len(data) < headerLen && last {
			// A crash between segment create and header write leaves a
			// short header; the segment holds no records, so rewriting the
			// header loses nothing. Simplest repair: truncate to empty and
			// rewrite the header on reopen via openFreshSegment semantics —
			// but only when this segment could not contain acked records.
			if terr := os.Truncate(path, 0); terr == nil {
				if f, ferr := os.OpenFile(path, os.O_WRONLY, 0o644); ferr == nil {
					_, werr := f.Write(encodeHeader())
					serr := f.Sync()
					cerr := f.Close()
					if werr == nil && serr == nil && cerr == nil {
						res.Truncated = true
						res.TruncateAt = fmt.Sprintf("%s@0: rewrote torn header", seg.name)
						l.size = headerLen
						return int64(headerLen), nil
					}
				}
			}
			return 0, fmt.Errorf("edgelog: repairing torn header of %s: %w", seg.name, err)
		}
		return 0, err
	}

	off := int64(headerLen)
	for off < int64(len(data)) {
		rec, n, err := decodeRecordAt(data[off:], seg.name, off)
		if err != nil {
			return off, damaged(off, err)
		}
		if rec.Seq < l.nextSeq {
			// Already covered by the snapshot (compaction only removes
			// fully-covered segments, so partial overlap is normal).
			off += int64(n)
			continue
		}
		if rec.Seq != l.nextSeq {
			return off, &CorruptError{Segment: seg.name, Offset: off,
				Reason: fmt.Sprintf("sequence gap: record %d where %d expected", rec.Seq, l.nextSeq)}
		}
		res.Records = append(res.Records, rec)
		l.nextSeq = rec.Seq + 1
		if rec.ClientID != "" && rec.ClientSeq > l.clients[rec.ClientID] {
			l.clients[rec.ClientID] = rec.ClientSeq
		}
		if rec.Kind == KindEpoch && rec.Epoch > l.epoch {
			l.epoch = rec.Epoch
		}
		off += int64(n)
	}
	if last {
		l.size = off
	}
	return off, nil
}

func syncFileByName(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// openFreshSegmentLocked creates and syncs a new active segment named by
// the next record sequence.
func (l *Log) openFreshSegmentLocked() error {
	seg := segment{name: segName(l.nextSeq), firstSeq: l.nextSeq}
	f, err := os.OpenFile(filepath.Join(l.dir, seg.name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeHeader()); err != nil {
		f.Close()
		os.Remove(filepath.Join(l.dir, seg.name))
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(filepath.Join(l.dir, seg.name))
		return err
	}
	if err := atomicio.SyncDir(l.dir); err != nil {
		f.Close()
		// Remove the orphan so a retry's O_EXCL create does not hit
		// EEXIST forever.
		os.Remove(filepath.Join(l.dir, seg.name))
		return err
	}
	l.f = f
	l.active = seg
	l.size = headerLen
	l.activeSynced = headerLen
	l.segments = append(l.segments, seg)
	l.obsGauges()
	return nil
}

// rotateLocked seals the active segment (final sync) and opens a fresh
// one. Called before an append that would overflow SegmentBytes, so a
// rotation failure fails that append cleanly with no bytes written. If
// the old segment was sealed but the fresh one could not be opened,
// l.f is left nil and the next append re-enters here to retry just the
// open — a transient create/sync failure must not wedge the log behind
// a closed file handle.
func (l *Log) rotateLocked() error {
	if err := l.opts.Chaos.Fire("edgelog.rotate", int64(l.nextSeq), 0); err != nil {
		return err
	}
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return err
		}
		err := l.f.Close()
		l.f = nil
		l.unsynced = 0
		if err != nil {
			return err
		}
	}
	if err := l.openFreshSegmentLocked(); err != nil {
		return err
	}
	l.opts.Obs.Counter("edgelog.rotations").Add(1)
	return nil
}

// Append durably records one batch. clientID/clientSeq implement
// idempotent retry: a batch whose clientSeq is not greater than the last
// applied for that client returns dup=true and writes nothing (an empty
// clientID opts out of dedup). On success the returned Record carries the
// assigned global seq. On error nothing was acked and the on-disk tail is
// unchanged — unless rollback itself failed, after which the log is
// broken and says so on every call.
func (l *Log) Append(clientID string, clientSeq uint64, edges []temporal.Edge) (Record, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Record{}, false, errors.New("edgelog: append on closed log")
	}
	if l.broken {
		return Record{}, false, ErrBroken
	}
	if err := validateEdges(edges); err != nil {
		return Record{}, false, err
	}
	if clientID != "" && len(clientID) > 1<<15 {
		return Record{}, false, fmt.Errorf("edgelog: client id of %d bytes exceeds the 32KiB limit", len(clientID))
	}
	// The replay decoder refuses payloads over maxRecordLen, so an
	// oversize batch must be rejected here — acking it would durably
	// write a record that can never replay (the acked-means-durable
	// contract would break on the next restart).
	if n := encodedPayloadLen(len(clientID), len(edges)); n > maxRecordLen {
		return Record{}, false, fmt.Errorf(
			"%w: batch of %d edges encodes to a %d-byte record, over the %d-byte cap (split the batch; max %d edges)",
			ErrInvalidEdge, len(edges), n, int64(maxRecordLen), MaxBatchEdges)
	}
	if clientID != "" && clientSeq <= l.clients[clientID] {
		l.opts.Obs.Counter("edgelog.append_dup").Add(1)
		return Record{}, true, nil
	}

	seq := l.nextSeq
	attempt := l.attempts[seq]
	l.attempts[seq] = attempt + 1
	fail := func(err error) (Record, bool, error) {
		l.opts.Obs.Counter("edgelog.append_errors").Add(1)
		return Record{}, false, err
	}
	if err := l.opts.Chaos.Fire("edgelog.append", int64(seq), attempt); err != nil {
		return fail(err)
	}

	rec := Record{Seq: seq, Kind: KindEdges, ClientID: clientID, ClientSeq: clientSeq, Edges: edges}
	if err := l.writeRecordLocked(rec, false, attempt); err != nil {
		return fail(err)
	}

	delete(l.attempts, seq)
	if clientID != "" {
		l.clients[clientID] = clientSeq
	}
	l.opts.Obs.Counter("edgelog.appends").Add(1)
	l.opts.Obs.Counter("edgelog.append_edges").Add(int64(len(edges)))
	l.obsGauges()
	return rec, false, nil
}

// writeRecordLocked frames rec at the tail of the active segment
// (rotating first if needed), applies the sync policy (forceSync
// overrides SyncEvery), and rolls the file back on any failure so a bad
// frame can never replay. On success l.size, l.nextSeq and the durable
// watermark are advanced; on rollback failure the log is marked broken.
func (l *Log) writeRecordLocked(rec Record, forceSync bool, attempt int) error {
	// l.f == nil means a previous rotation sealed the old segment but
	// failed to open a fresh one; rotateLocked retries just the open.
	if l.f == nil || l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}

	l.buf = encodeRecord(l.buf[:0], rec)
	wrote, err := l.f.Write(l.buf)
	synced := false
	if err == nil {
		l.unsynced++
		if forceSync || (l.opts.SyncEvery > 0 && l.unsynced >= l.opts.SyncEvery) {
			if err = l.opts.Chaos.Fire("edgelog.fsync", int64(rec.Seq), attempt); err == nil {
				err = l.syncFile()
			}
			if err == nil {
				l.unsynced = 0
				synced = true
				l.opts.Obs.Counter("edgelog.fsyncs").Add(1)
			}
		}
	}
	if err != nil {
		// Roll the file back to the pre-append offset so the failed (and
		// possibly partial or unsynced) frame can never replay.
		if wrote > 0 || l.opts.SyncEvery > 0 || forceSync {
			if terr := l.f.Truncate(l.size); terr != nil {
				l.broken = true
				return fmt.Errorf("%w (append: %v, rollback: %v)", ErrBroken, err, terr)
			}
			if _, serr := l.f.Seek(l.size, 0); serr != nil {
				l.broken = true
				return fmt.Errorf("%w (append: %v, reseek: %v)", ErrBroken, err, serr)
			}
		}
		return err
	}

	l.size += int64(len(l.buf))
	l.nextSeq = rec.Seq + 1
	if synced || l.opts.SyncEvery == SyncNever {
		l.activeSynced = l.size
	}
	return nil
}

// BumpEpoch durably raises the log's epoch to `to` by appending an epoch
// record, fsynced regardless of SyncEvery: a promotion that could be
// forgotten on crash would let a deposed primary resurrect un-fenced.
// `to` must be strictly beyond the current epoch.
func (l *Log) BumpEpoch(to uint64) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Record{}, errors.New("edgelog: append on closed log")
	}
	if l.broken {
		return Record{}, ErrBroken
	}
	if to <= l.epoch {
		return Record{}, fmt.Errorf("edgelog: epoch bump to %d not beyond current epoch %d", to, l.epoch)
	}
	seq := l.nextSeq
	attempt := l.attempts[seq]
	l.attempts[seq] = attempt + 1
	if err := l.opts.Chaos.Fire("edgelog.append", int64(seq), attempt); err != nil {
		l.opts.Obs.Counter("edgelog.append_errors").Add(1)
		return Record{}, err
	}
	rec := Record{Seq: seq, Kind: KindEpoch, Epoch: to}
	if err := l.writeRecordLocked(rec, true, attempt); err != nil {
		l.opts.Obs.Counter("edgelog.append_errors").Add(1)
		return Record{}, err
	}
	delete(l.attempts, seq)
	l.epoch = to
	l.opts.Obs.Counter("edgelog.appends").Add(1)
	l.opts.Obs.Counter("edgelog.epoch_bumps").Add(1)
	l.obsGauges()
	return rec, nil
}

// AppendStanding durably records a standing-query board change, fsynced
// regardless of SyncEvery: an acked registration that evaporated on
// restart is exactly the silent drop these records exist to prevent.
func (l *Log) AppendStanding(op StandingOp) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Record{}, errors.New("edgelog: append on closed log")
	}
	if l.broken {
		return Record{}, ErrBroken
	}
	if err := validateStanding(&op); err != nil {
		return Record{}, err
	}
	seq := l.nextSeq
	attempt := l.attempts[seq]
	l.attempts[seq] = attempt + 1
	if err := l.opts.Chaos.Fire("edgelog.append", int64(seq), attempt); err != nil {
		l.opts.Obs.Counter("edgelog.append_errors").Add(1)
		return Record{}, err
	}
	rec := Record{Seq: seq, Kind: KindStanding, Standing: &op}
	if err := l.writeRecordLocked(rec, true, attempt); err != nil {
		l.opts.Obs.Counter("edgelog.append_errors").Add(1)
		return Record{}, err
	}
	delete(l.attempts, seq)
	l.opts.Obs.Counter("edgelog.appends").Add(1)
	l.obsGauges()
	return rec, nil
}

// AppendRecord writes a record exactly as shipped from a replication
// source: seq, kind, and payload are preserved verbatim so the
// follower's log replays the same history the primary's would. The
// record's seq must be exactly this log's next sequence — anything else
// means the two histories diverged, and divergence is a refusal, never
// a repair. The local sync policy applies (followers own their
// durability knobs).
func (l *Log) AppendRecord(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("edgelog: append on closed log")
	}
	if l.broken {
		return ErrBroken
	}
	if rec.Seq != l.nextSeq {
		return fmt.Errorf("edgelog: replicated record seq %d where %d expected: source and local histories diverged", rec.Seq, l.nextSeq)
	}
	switch rec.Kind {
	case KindEdges, 0:
		if err := validateEdges(rec.Edges); err != nil {
			return err
		}
	case KindEpoch:
		if rec.Epoch == 0 {
			return fmt.Errorf("%w: replicated epoch record with epoch 0", ErrInvalidEdge)
		}
	case KindStanding:
		if err := validateStanding(rec.Standing); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: replicated record of unknown kind %d", ErrInvalidEdge, rec.Kind)
	}
	seq := rec.Seq
	attempt := l.attempts[seq]
	l.attempts[seq] = attempt + 1
	if err := l.opts.Chaos.Fire("edgelog.append", int64(seq), attempt); err != nil {
		l.opts.Obs.Counter("edgelog.append_errors").Add(1)
		return err
	}
	if err := l.writeRecordLocked(rec, false, attempt); err != nil {
		l.opts.Obs.Counter("edgelog.append_errors").Add(1)
		return err
	}
	delete(l.attempts, seq)
	if rec.ClientID != "" && rec.ClientSeq > l.clients[rec.ClientID] {
		l.clients[rec.ClientID] = rec.ClientSeq
	}
	if rec.Kind == KindEpoch && rec.Epoch > l.epoch {
		l.epoch = rec.Epoch
	}
	l.opts.Obs.Counter("edgelog.appends").Add(1)
	l.obsGauges()
	return nil
}

// ErrCompacted reports that the requested sequence predates the oldest
// retained segment: those records only exist folded into the snapshot,
// so the reader must bootstrap from the snapshot instead.
var ErrCompacted = errors.New("edgelog: requested records were compacted into a snapshot")

// ReadRecords decodes up to max records starting at fromSeq for WAL
// shipping. Only durable bytes are read (see activeSynced): a record is
// never shipped before it would survive the primary's own crash. The
// second return is the durable bytes beyond the last returned record —
// the shipper's byte lag. A fromSeq older than the first retained
// segment returns ErrCompacted.
func (l *Log) ReadRecords(fromSeq uint64, max int) ([]Record, int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, 0, errors.New("edgelog: read on closed log")
	}
	if max <= 0 {
		max = 1024
	}
	if fromSeq == 0 {
		fromSeq = 1
	}
	if len(l.segments) > 0 && fromSeq < l.segments[0].firstSeq {
		return nil, 0, ErrCompacted
	}
	var recs []Record
	var tailBytes int64
	for i, seg := range l.segments {
		if i+1 < len(l.segments) && l.segments[i+1].firstSeq <= fromSeq {
			continue // wholly before fromSeq
		}
		data, err := os.ReadFile(filepath.Join(l.dir, seg.name))
		if err != nil {
			return nil, 0, err
		}
		limit := int64(len(data))
		if seg.name == l.active.name && l.activeSynced < limit {
			// Unsynced tail: written but not yet durable. Never ship it.
			limit = l.activeSynced
		}
		if err := checkHeader(data, seg.name); err != nil {
			return nil, 0, err
		}
		off := int64(headerLen)
		for off < limit {
			// The durable watermark always lands on a record boundary, so
			// the prefix below limit must decode cleanly.
			rec, n, err := decodeRecordAt(data[off:limit], seg.name, off)
			if err != nil {
				return nil, 0, err
			}
			off += int64(n)
			if rec.Seq < fromSeq {
				continue
			}
			if len(recs) < max {
				recs = append(recs, rec)
			} else {
				tailBytes += int64(n)
			}
		}
	}
	return recs, tailBytes, nil
}

// Epoch returns the log's current epoch (1 for a never-promoted log).
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Sync flushes any unsynced appends (a no-op under SyncEvery=1).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.f == nil {
		return nil
	}
	if l.unsynced == 0 {
		return nil
	}
	if err := l.syncFile(); err != nil {
		return err
	}
	l.unsynced = 0
	l.activeSynced = l.size
	l.opts.Obs.Counter("edgelog.fsyncs").Add(1)
	return nil
}

// syncFile fsyncs the active segment for an append or Sync — the fsyncs
// edgelog.fsyncs counts — observing each call's latency in
// edgelog.fsync_ns, failed calls included.
func (l *Log) syncFile() error {
	start := time.Now()
	err := l.f.Sync()
	l.opts.Obs.Histogram("edgelog.fsync_ns").Observe(int64(time.Since(start)))
	return err
}

// NextSeq returns the sequence the next accepted append will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// ClientSeq returns the last applied sequence for a client (0 if none).
func (l *Log) ClientSeq(clientID string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.clients[clientID]
}

// SegmentCount returns how many segment files the log currently owns.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Close syncs and closes the active segment. The log rejects appends
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	serr := l.f.Sync()
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

func (l *Log) obsGauges() {
	l.opts.Obs.Gauge("edgelog.segments").Set(int64(len(l.segments)))
	l.opts.Obs.Gauge("edgelog.next_seq").Set(int64(l.nextSeq))
}
