package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/metrics"
)

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindLease, Value: 1},
		{Kind: KindLease, Value: 1 << 40},
		{Kind: KindMark, Value: -7, Data: []byte{}},
		{Kind: KindCommit, Value: 42, Data: []byte("commit payload \x00\xff")},
	}
	var log []byte
	for _, rec := range recs {
		var err error
		log, err = AppendRecord(log, rec)
		if err != nil {
			t.Fatalf("AppendRecord(%+v): %v", rec, err)
		}
	}
	got, goodLen, tailErr := DecodeAll(log)
	if tailErr != nil {
		t.Fatalf("clean log reported tail error: %v", tailErr)
	}
	if goodLen != len(log) {
		t.Fatalf("goodLen = %d, want %d", goodLen, len(log))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, rec := range recs {
		if got[i].Kind != rec.Kind || got[i].Value != rec.Value || !bytes.Equal(got[i].Data, rec.Data) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], rec)
		}
	}
}

func TestDecodeAllStopsAtTornTail(t *testing.T) {
	full, err := EncodeRecord(Record{Kind: KindCommit, Value: 9, Data: bytes.Repeat([]byte{0xab}, 100)})
	if err != nil {
		t.Fatal(err)
	}
	log, err := AppendRecord(nil, Record{Kind: KindLease, Value: 3})
	if err != nil {
		t.Fatal(err)
	}
	prefix := len(log)
	log = append(log, full...)

	for cut := prefix; cut < len(log); cut++ {
		recs, goodLen, tailErr := DecodeAll(log[:cut])
		if len(recs) != 1 || recs[0].Value != 3 {
			t.Fatalf("cut %d: got %d records, want just the intact one", cut, len(recs))
		}
		if goodLen != prefix {
			t.Fatalf("cut %d: goodLen = %d, want %d", cut, goodLen, prefix)
		}
		if cut > prefix && !errors.Is(tailErr, ErrBadFrame) {
			t.Fatalf("cut %d: tailErr = %v, want ErrBadFrame", cut, tailErr)
		}
	}

	// A bit flip anywhere in the second frame must stop decoding there too.
	for i := prefix; i < len(log); i++ {
		mut := append([]byte(nil), log...)
		mut[i] ^= 0x01
		recs, _, tailErr := DecodeAll(mut)
		if len(recs) > 1 {
			// A flip in the length field can only shrink/grow the frame —
			// CRC still has to match for the record to be surfaced.
			t.Fatalf("flip at %d: corrupted record surfaced: %+v", i, recs)
		}
		if tailErr == nil {
			t.Fatalf("flip at %d: corruption not reported", i)
		}
	}
}

func TestMemoryBackend(t *testing.T) {
	m := NewMemory()
	testBackendBasics(t, m)
	testBackendLog(t, m)
}

func TestFileBackend(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	testBackendBasics(t, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	testBackendLog(t, g)
}

func testBackendBasics(t *testing.T, b Backend) {
	t.Helper()
	snap, recs, err := b.Replay()
	if err != nil || snap != nil || len(recs) != 0 {
		t.Fatalf("fresh backend Replay = (%v, %v, %v), want empty", snap, recs, err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := b.Append(Record{Kind: KindLease, Value: i}); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := b.Snapshot([]byte("state@5")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := b.Append(Record{Kind: KindMark, Value: 6, Data: []byte("post")}); err != nil {
		t.Fatalf("Append after snapshot: %v", err)
	}
	if err := b.Append(Record{Kind: 0}); err == nil {
		t.Fatal("appending an invalid record should fail")
	}
	if err := b.AppendBatch(nil); err != nil {
		t.Fatalf("empty AppendBatch: %v", err)
	}
	if err := b.AppendBatch([]Record{{Kind: KindLease, Value: 7}, {Kind: KindLease, Value: 8}}); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	// One invalid record rejects the whole batch before any of it lands.
	if err := b.AppendBatch([]Record{{Kind: KindLease, Value: 9}, {Kind: kindEnd}, {Kind: KindLease, Value: 10}}); err == nil {
		t.Fatal("a batch holding an invalid record should fail")
	}
}

// testBackendLog asserts the records Replay returns after
// testBackendBasics: the post-snapshot mark plus the one valid batch.
func testBackendLog(t *testing.T, b Backend) {
	t.Helper()
	snap, recs, err := b.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "state@5" {
		t.Fatalf("snapshot = %q, want state@5", snap)
	}
	var got []int64
	for _, r := range recs {
		got = append(got, r.Value)
	}
	if fmt.Sprint(got) != "[6 7 8]" {
		t.Fatalf("replayed values %v, want [6 7 8] (nothing of the rejected batch)", got)
	}
}

// TestFileAppendBatchTornTail cuts the WAL at every byte offset inside a
// 5-record batch: replay must return the records before the batch plus
// exactly a prefix of the batch — never a gap, never a reordering.
func TestFileAppendBatchTornTail(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(Record{Kind: KindLease, Value: 1}); err != nil {
		t.Fatal(err)
	}
	_, before := f.Position()
	var batch []Record
	for v := int64(2); v <= 6; v++ {
		batch = append(batch, Record{Kind: KindCommit, Value: v, Data: bytes.Repeat([]byte{byte(v)}, int(v))})
	}
	if err := f.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	f.Close()
	full, err := os.ReadFile(WALPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}

	for cut := int(before); cut <= len(full); cut++ {
		cdir := t.TempDir()
		if err := os.WriteFile(WALPath(cdir, 0), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := OpenFile(cdir, FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, recs, err := g.Replay()
		g.Close()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) == 0 || recs[0].Value != 1 {
			t.Fatalf("cut %d: record before the batch lost: %+v", cut, recs)
		}
		for i, r := range recs[1:] {
			w := batch[i]
			if r.Kind != w.Kind || r.Value != w.Value || !bytes.Equal(r.Data, w.Data) {
				t.Fatalf("cut %d: replayed record %d = %+v, want batch[%d] = %+v", cut, i+1, r, i, w)
			}
		}
		if cut == len(full) && len(recs) != 1+len(batch) {
			t.Fatalf("uncut WAL replayed %d records, want %d", len(recs), 1+len(batch))
		}
	}
}

// TestFileBackendReopen exercises the full durability cycle: append,
// snapshot, append more, drop the handle without any graceful shutdown
// (a crash), reopen, and replay.
func TestFileBackendReopen(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := f.Append(Record{Kind: KindLease, Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Snapshot([]byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := f.Append(Record{Kind: KindCommit, Value: 4, Data: []byte("tx4")}); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate a crash by abandoning the handle.

	g, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	snap, recs, err := g.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "base" {
		t.Fatalf("snapshot = %q, want %q", snap, "base")
	}
	if len(recs) != 1 || recs[0].Kind != KindCommit || recs[0].Value != 4 || string(recs[0].Data) != "tx4" {
		t.Fatalf("post-snapshot records = %+v", recs)
	}
	// Only the newest generation's files remain.
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("dir holds %v, want exactly one snapshot and one WAL", names)
	}
}

// TestFileBackendTornTailTruncated: a partial trailing frame (the
// signature of a crash mid-write) is dropped at replay and physically
// truncated, and appending afterwards produces a clean log.
func TestFileBackendTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(Record{Kind: KindLease, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Append(Record{Kind: KindLease, Value: 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	path := WALPath(dir, 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	g, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, recs, err := g.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Value != 1 {
		t.Fatalf("replay after torn tail = %+v, want just lease 1", recs)
	}
	if err := g.Append(Record{Kind: KindLease, Value: 3}); err != nil {
		t.Fatal(err)
	}
	g.Close()

	h, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	_, recs, err = h.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Value != 1 || recs[1].Value != 3 {
		t.Fatalf("replay after repair = %+v, want leases 1,3", recs)
	}
}

// TestFileBackendConcurrentAppend drives concurrent appenders through
// the group-commit path, each appending batch records per call (Append
// for one, AppendBatch otherwise), and checks that every acknowledged
// record replays, and that the fsync groups account for every record
// exactly once.
func TestFileBackendConcurrentAppend(t *testing.T) {
	for _, batch := range []int{1, 16, 128} {
		batch := batch
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			reg := metrics.NewRegistry()
			f, err := OpenFile(dir, FileOptions{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			const workers, calls = 8, 50
			total := workers * calls * batch
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						recs := make([]Record, batch)
						for j := range recs {
							recs[j] = Record{Kind: KindLease, Value: int64(((w*calls+i)*batch + j) + 1)}
						}
						var err error
						if batch == 1 {
							err = f.Append(recs[0])
						} else {
							err = f.AppendBatch(recs)
						}
						if err != nil {
							t.Errorf("append: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			f.Close()

			groups := reg.Histogram(MetricFsyncBatch, "", nil)
			if got := groups.Sum(); got != float64(total) {
				t.Errorf("fsync groups covered %v records, want %d", got, total)
			}
			if fsyncs := reg.Counter(MetricWALFsyncs, "").Value(); groups.Count() != fsyncs {
				t.Errorf("%d fsync groups observed for %d fsyncs", groups.Count(), fsyncs)
			}

			g, err := OpenFile(dir, FileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			_, recs, err := g.Replay()
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[int64]bool, len(recs))
			for _, rec := range recs {
				if seen[rec.Value] {
					t.Fatalf("value %d appears twice", rec.Value)
				}
				seen[rec.Value] = true
			}
			if len(seen) != total {
				t.Fatalf("replayed %d distinct records, want %d", len(seen), total)
			}
		})
	}
}

// TestCounterResumesAboveEveryLease: crash/reopen cycles never re-issue
// a value, with and without intervening snapshots.
func TestCounterResumesAboveEveryLease(t *testing.T) {
	dir := t.TempDir()
	issued := make(map[int64]bool)

	issue := func(c *Counter, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			v, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if issued[v] {
				t.Fatalf("value %d issued twice", v)
			}
			issued[v] = true
		}
	}

	for round := 0; round < 4; round++ {
		f, err := OpenFile(dir, FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Snapshot every 7 leases so rounds cross generation boundaries.
		c, err := OpenCounter(f, 7)
		if err != nil {
			t.Fatal(err)
		}
		issue(c, 17)
		// Crash: abandon without Close.
	}
	if len(issued) != 4*17 {
		t.Fatalf("issued %d values, want %d", len(issued), 4*17)
	}
}

// TestCounterConcurrent hammers one durable counter from many
// goroutines; every value must be unique and must survive replay.
func TestCounterConcurrent(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCounter(f, 64)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 40
	var mu sync.Mutex
	seen := make(map[int64]bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v, err := c.Next()
				if err != nil {
					t.Errorf("Next: %v", err)
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("value %d issued twice", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	f.Close()

	g, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	c2, err := OpenCounter(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if seen[v] {
		t.Fatalf("post-recovery value %d collides with a pre-crash value", v)
	}
}

// TestSnapshotFileAtomicity: a leftover .tmp from a crashed snapshot
// write is ignored.
func TestSnapshotFileAtomicity(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append(Record{Kind: KindLease, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Snapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// A torn snapshot attempt that never reached rename.
	if err := os.WriteFile(filepath.Join(dir, "snap-2.bin.tmp"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a fully corrupt "snapshot" that did get a real name.
	if err := os.WriteFile(filepath.Join(dir, "snap-3.bin"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	g, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	snap, _, err := g.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "good" {
		t.Fatalf("replayed snapshot %q, want the last valid one", snap)
	}
}

// TestCounterAdoptRangesClosesOffers pins the external-adopter
// handshake a membership drain uses: offers consumed via AdoptRanges in
// the SAME incarnation that released them are never re-offered by a
// later replay (the released ranges went to another frontend, so a
// replay offering them here would double-issue).
func TestCounterAdoptRangesClosesOffers(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCounter(f, -1)
	if err != nil {
		t.Fatal(err)
	}
	ranges := []IndexRange{{From: 40, To: 47}, {From: 90, To: 95}}
	if err := c.ReleaseRanges(ranges); err != nil {
		t.Fatal(err)
	}
	if err := c.AdoptRanges(ranges); err != nil {
		t.Fatal(err)
	}
	if err := c.AdoptRanges([]IndexRange{{From: 3, To: 1}}); err == nil {
		t.Fatal("invalid adopt range accepted")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	c2, err := OpenCounter(f2, -1)
	if err != nil {
		t.Fatal(err)
	}
	pending, err := c2.PendingReclaims()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("consumed offers re-offered after replay: %+v", pending)
	}
}

// TestCounterRangeLedgerOneSyncPerCall: each range-ledger update —
// release, external adopt, replayed adopt — journals all of its ranges in
// one batch, so one fsync per call whatever the number of ranges.
func TestCounterRangeLedgerOneSyncPerCall(t *testing.T) {
	dir := t.TempDir()
	ranges := []IndexRange{{From: 10, To: 19}, {From: 30, To: 39}, {From: 50, To: 59}}
	open := func() (*Counter, *metrics.Counter, *File) {
		reg := metrics.NewRegistry()
		f, err := OpenFile(dir, FileOptions{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		c, err := OpenCounter(f, -1)
		if err != nil {
			t.Fatal(err)
		}
		return c, reg.Counter(MetricWALFsyncs, ""), f
	}
	syncsOf := func(fsyncs *metrics.Counter, op func() error) uint64 {
		t.Helper()
		before := fsyncs.Value()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return fsyncs.Value() - before
	}

	c, fsyncs, f := open()
	if n := syncsOf(fsyncs, func() error { return c.ReleaseRanges(ranges) }); n != 1 {
		t.Errorf("ReleaseRanges of 3 ranges: %d fsyncs, want 1", n)
	}
	f.Close()

	c, fsyncs, f = open()
	var got []IndexRange
	if n := syncsOf(fsyncs, func() (err error) { got, err = c.PendingReclaims(); return err }); n != 1 {
		t.Errorf("PendingReclaims of 3 ranges: %d fsyncs, want 1", n)
	}
	if fmt.Sprint(got) != fmt.Sprint(ranges) {
		t.Errorf("PendingReclaims = %v, want %v", got, ranges)
	}
	if n := syncsOf(fsyncs, func() error { return c.ReleaseRanges(ranges) }); n != 1 {
		t.Errorf("second ReleaseRanges: %d fsyncs, want 1", n)
	}
	if n := syncsOf(fsyncs, func() error { return c.AdoptRanges(ranges) }); n != 1 {
		t.Errorf("AdoptRanges of 3 ranges: %d fsyncs, want 1", n)
	}
	f.Close()
}

// TestCounterReclaimCycle drives the release → adopt lease-reclamation
// protocol across three incarnations of a file-backed counter: released
// ranges are offered exactly once, adoption is durable before the ranges
// are returned, and a crash after adoption burns (never re-offers) them.
func TestCounterReclaimCycle(t *testing.T) {
	dir := t.TempDir()

	// Incarnation 1: lease some blocks, release two remainder ranges on
	// the way down (as the frontend's SIGTERM path does).
	f, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCounter(f, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	released := []IndexRange{{From: 10, To: 64}, {From: 100, To: 128}}
	if err := c.ReleaseRanges(released); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2: the ranges are pending exactly as released, and the
	// counter still resumes above every lease.
	f2, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCounter(f2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Last(); got != 5 {
		t.Fatalf("Last = %d, want 5", got)
	}
	got, err := c2.PendingReclaims()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != released[0] || got[1] != released[1] {
		t.Fatalf("pending = %+v, want %+v", got, released)
	}
	// Second call in the same incarnation: nothing left to offer.
	again, err := c2.PendingReclaims()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second PendingReclaims = %+v, want empty", again)
	}
	// Simulated crash: no Close, no re-release.
	_ = f2.Close()

	// Incarnation 3: the adopt records are durable, so the ranges must
	// not be offered again (re-offering would double-issue indexes the
	// crashed incarnation may already have handed out).
	f3, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f3.Close()
	c3, err := OpenCounter(f3, -1)
	if err != nil {
		t.Fatal(err)
	}
	after, err := c3.PendingReclaims()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 0 {
		t.Fatalf("crashed adopter's ranges re-offered: %+v", after)
	}
	if err := c3.ReleaseRanges([]IndexRange{{From: 0, To: 3}}); err == nil {
		t.Fatal("invalid range accepted")
	}
}
