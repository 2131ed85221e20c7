package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// FileOptions tunes the file backend.
type FileOptions struct {
	// Metrics selects the registry the backend's WAL series
	// (store_wal_appends_total, store_wal_fsync_total, …) are registered
	// in (nil = a private registry nothing scrapes).
	Metrics *metrics.Registry
}

// File is the durable Backend: an append-only WAL per snapshot
// generation plus an atomically-renamed snapshot file.
//
// Directory layout:
//
//	wal-<gen>.log   — the record log of generation gen
//	snap-<gen>.bin  — the snapshot blob that opened generation gen
//
// Snapshot bumps the generation: it persists the blob as
// snap-<gen+1>.bin (write temp, fsync, rename, fsync dir), starts
// wal-<gen+1>.log, and deletes the previous generation's files. Replay
// finds the highest valid snapshot and reads its WAL, truncating any
// torn tail in place so later appends extend a clean log.
//
// Appends are group-committed: records are written and fsynced before
// Append or AppendBatch returns, and the group clocks itself. The leader
// writes and fsyncs everything queued, never waiting for more; appends
// that arrive during that sync queue up and share the next one, so the
// group size follows the load. That is what makes a WAL-backed counter
// sustain high issuance rates. An AppendBatch enters the queue as one
// unit — one write, one fsync for all of its records — which is how the
// chain makes a whole Execute batch durable at once.
type File struct {
	dir     string
	metrics *fileMetrics

	mu        sync.Mutex
	cond      *sync.Cond
	wal       *os.File
	gen       uint64
	pending   []byte // encoded frames queued for the next flush
	pendingN  int    // records in pending
	queuedOff int64  // current-WAL offset once pending is flushed
	syncedOff int64  // durable current-WAL offset
	seqQueued int64  // monotonic bytes queued across all generations
	seqSynced int64  // monotonic bytes synced across all generations
	flushing  bool   // a leader is writing+syncing outside mu
	ioErr     error  // sticky: first write/sync failure poisons the backend
	closed    bool
	replayed  bool
}

func walName(gen uint64) string  { return fmt.Sprintf("wal-%d.log", gen) }
func snapName(gen uint64) string { return fmt.Sprintf("snap-%d.bin", gen) }

// WALPath returns the path of the generation-gen WAL inside dir. The
// crash-injection harness uses it to watch and truncate the live log
// from outside the process.
func WALPath(dir string, gen uint64) string { return filepath.Join(dir, walName(gen)) }

// OpenFile opens (or creates) a file backend rooted at dir.
func OpenFile(dir string, opts FileOptions) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	f := &File{dir: dir, metrics: newFileMetrics(metrics.Or(opts.Metrics))}
	f.cond = sync.NewCond(&f.mu)
	gen, err := f.latestGen()
	if err != nil {
		return nil, err
	}
	f.gen = gen
	wal, err := os.OpenFile(WALPath(dir, gen), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open WAL: %w", err)
	}
	f.wal = wal
	return f, nil
}

// latestGen scans dir for the highest generation with a readable
// snapshot (0 when no snapshot exists).
func (f *File) latestGen() (uint64, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return 0, fmt.Errorf("store: scan dir: %w", err)
	}
	var gens []uint64
	for _, e := range entries {
		var g uint64
		if n, _ := fmt.Sscanf(e.Name(), "snap-%d.bin", &g); n == 1 {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	for _, g := range gens {
		if _, err := readSnapshotFile(filepath.Join(f.dir, snapName(g))); err == nil {
			return g, nil
		}
	}
	return 0, nil
}

// readSnapshotFile reads and validates one snapshot file: a single
// KindSnapshot-less frame holding the blob (we reuse the WAL frame for
// its CRC; the kind slot carries KindMark's encoding-neutral sibling —
// see writeSnapshotFile).
func readSnapshotFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec, n, err := DecodeFrame(raw)
	if err != nil {
		return nil, err
	}
	if n != len(raw) || rec.Kind != KindMark || rec.Value != snapshotMagic {
		return nil, fmt.Errorf("%w: not a snapshot file", ErrBadFrame)
	}
	return rec.Data, nil
}

// snapshotMagic marks a frame as a snapshot container rather than a log
// record (snapshot files never mix with WAL records, but the magic makes
// a misplaced file fail loudly instead of replaying as state).
const snapshotMagic = -0x534e4150 // "SNAP"

func writeSnapshotFile(path string, blob []byte) error {
	frame, err := EncodeRecord(Record{Kind: KindMark, Value: snapshotMagic, Data: blob})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	t, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = t.Write(frame); err == nil {
		err = t.Sync()
	}
	if cerr := t.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// syncDir fsyncs the directory so renames and creations are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Replay implements Backend. It must run on a freshly opened backend,
// before any Append: it reads the generation's snapshot and WAL,
// truncates a torn tail in place, and syncs the result so the recovered
// log is itself durable.
func (f *File) Replay() (snapshot []byte, records []Record, err error) {
	start := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, nil, ErrClosed
	}
	if f.queuedOff != 0 || f.replayed {
		return nil, nil, errors.New("store: Replay must run before any Append, once")
	}
	if f.gen > 0 {
		snapshot, err = readSnapshotFile(filepath.Join(f.dir, snapName(f.gen)))
		if err != nil {
			return nil, nil, fmt.Errorf("store: read snapshot gen %d: %w", f.gen, err)
		}
	}
	raw, err := io.ReadAll(io.NewSectionReader(f.wal, 0, 1<<40))
	if err != nil {
		return nil, nil, fmt.Errorf("store: read WAL: %w", err)
	}
	records, goodLen, tailErr := DecodeAll(raw)
	if tailErr != nil {
		// Torn tail: drop it on disk so future appends extend a clean log.
		if err := f.wal.Truncate(int64(goodLen)); err != nil {
			return nil, nil, fmt.Errorf("store: truncate torn WAL tail: %w", err)
		}
		f.metrics.tornTails.Inc()
	}
	if _, err := f.wal.Seek(int64(goodLen), io.SeekStart); err != nil {
		return nil, nil, fmt.Errorf("store: seek WAL: %w", err)
	}
	if err := f.wal.Sync(); err != nil {
		return nil, nil, fmt.Errorf("store: sync recovered WAL: %w", err)
	}
	f.queuedOff = int64(goodLen)
	f.syncedOff = int64(goodLen)
	f.replayed = true
	f.metrics.replayRecords.Add(uint64(len(records)))
	f.metrics.replaySecs.ObserveDuration(time.Since(start))
	return snapshot, records, nil
}

// Append implements Backend with leader-based group commit: the first
// appender to find no flush in flight becomes the leader, writes every
// queued frame at once, and fsyncs once for the whole group. Append only
// returns once its own record is covered by a completed fsync.
func (f *File) Append(rec Record) error {
	frame, err := EncodeRecord(rec)
	if err != nil {
		return err
	}
	return f.appendFrames(frame, 1)
}

// AppendBatch implements Backend: every record is framed into one buffer
// that enters the group-commit queue as a unit, so the batch costs one
// write and (at most) one fsync, and the call returns only once all of
// it is durable. An invalid record fails the call before anything is
// queued. A crash mid-batch leaves a prefix of the batch's frames on
// disk, which Replay returns like any other torn tail.
func (f *File) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	size := 0
	for _, rec := range recs {
		size += frameHeaderLen + payloadFixedLen + len(rec.Data)
	}
	buf := make([]byte, 0, size)
	for _, rec := range recs {
		var err error
		if buf, err = AppendRecord(buf, rec); err != nil {
			return err
		}
	}
	return f.appendFrames(buf, len(recs))
}

// appendFrames queues n already-encoded frames and waits until a group
// commit has synced them.
func (f *File) appendFrames(frames []byte, n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.ioErr != nil {
		return f.ioErr
	}
	if !f.replayed {
		f.replayed = true // fresh log: appending forfeits Replay
		f.ensureOffsetLocked()
	}
	f.pending = append(f.pending, frames...)
	f.pendingN += n
	f.queuedOff += int64(len(frames))
	f.seqQueued += int64(len(frames))
	f.metrics.appends.Add(uint64(n))
	// The completion condition uses the monotonic sequence counters, not
	// the per-WAL offsets: a Snapshot may drain these records into the old
	// generation and reset the offsets before this goroutine wakes up.
	target := f.seqQueued
	for f.seqSynced < target {
		if f.ioErr != nil {
			return f.ioErr
		}
		if f.closed {
			return ErrClosed
		}
		if f.flushing {
			f.cond.Wait()
			continue
		}
		f.flushLocked()
	}
	return nil
}

// ensureOffsetLocked initializes queuedOff/syncedOff from the WAL size
// for backends that append without calling Replay first.
func (f *File) ensureOffsetLocked() {
	if st, err := f.wal.Stat(); err == nil {
		f.queuedOff = st.Size()
		f.syncedOff = st.Size()
	}
}

// flushLocked runs one group commit as the leader. Called with mu held;
// temporarily releases it around the write+sync, during which later
// appenders queue for the next group.
func (f *File) flushLocked() {
	f.flushing = true
	buf := f.pending
	n := f.pendingN
	f.pending = nil
	f.pendingN = 0
	end := f.queuedOff // all pending flushed ⇒ durable offset catches up
	wal := f.wal
	f.mu.Unlock()

	var err error
	if len(buf) > 0 {
		if _, err = wal.Write(buf); err == nil {
			err = wal.Sync()
		}
		if err == nil {
			f.metrics.fsyncs.Inc()
			f.metrics.bytes.Add(uint64(len(buf)))
			f.metrics.fsyncBatch.Observe(float64(n))
		}
	}

	f.mu.Lock()
	f.flushing = false
	if err != nil {
		f.ioErr = fmt.Errorf("store: WAL flush: %w", err)
	} else {
		if end > f.syncedOff {
			f.syncedOff = end
		}
		f.seqSynced += int64(len(buf))
	}
	f.cond.Broadcast()
}

// Snapshot implements Backend: it drains pending appends into the old
// generation, persists blob as snap-<gen+1>.bin, opens wal-<gen+1>.log,
// and removes the previous generation's files.
func (f *File) Snapshot(blob []byte) error {
	start := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.ioErr != nil {
		return f.ioErr
	}
	for f.flushing {
		f.cond.Wait()
	}
	if f.pendingN > 0 {
		f.flushLocked()
		if f.ioErr != nil {
			return f.ioErr
		}
	}
	next := f.gen + 1
	if err := writeSnapshotFile(filepath.Join(f.dir, snapName(next)), blob); err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := syncDir(f.dir); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	wal, err := os.OpenFile(WALPath(f.dir, next), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: open next WAL: %w", err)
	}
	if err := syncDir(f.dir); err != nil {
		wal.Close()
		return fmt.Errorf("store: sync dir: %w", err)
	}
	old, oldGen := f.wal, f.gen
	f.wal = wal
	f.gen = next
	f.queuedOff = 0
	f.syncedOff = 0
	f.replayed = true
	old.Close()
	// The previous generation is fully subsumed; removal is best-effort
	// (a crash here just leaves one stale generation behind, which the
	// next Open ignores in favor of the newer snapshot).
	os.Remove(filepath.Join(f.dir, walName(oldGen)))
	if oldGen > 0 {
		os.Remove(filepath.Join(f.dir, snapName(oldGen)))
	}
	f.metrics.snapshotSecs.ObserveDuration(time.Since(start))
	return nil
}

// Position returns the current generation and the durable byte offset in
// its WAL. The crash-injection harness records it with every acknowledged
// operation: truncating the live WAL anywhere at or beyond an
// acknowledged position must never lose that operation.
func (f *File) Position() (gen uint64, syncedOff int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.replayed {
		f.ensureOffsetLocked()
	}
	return f.gen, f.syncedOff
}

// Close implements Backend. Pending appenders are woken with ErrClosed;
// records they queued may or may not be durable — exactly like a crash —
// which is fine because those Appends never returned success.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	for f.flushing {
		f.cond.Wait()
	}
	f.cond.Broadcast()
	return f.wal.Close()
}
