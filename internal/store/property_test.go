package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"
)

// TestFilePropertyVsMemoryOracle drives a file backend and the Memory
// oracle through the same random interleavings of appends, batch
// appends, snapshots,
// crashes (reopen without Close, optionally with a torn or corrupted
// tail), and replays, asserting the file backend always recovers exactly
// the oracle's state. 1000 seeded iterations; -short runs a prefix.
func TestFilePropertyVsMemoryOracle(t *testing.T) {
	iters := 1000
	if testing.Short() {
		iters = 100
	}
	const seed = 0x534d414353 // fixed: failures must reproduce
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < iters; i++ {
		iterSeed := rng.Int63()
		t.Run(fmt.Sprintf("iter%04d", i), func(t *testing.T) {
			propertyIter(t, rand.New(rand.NewSource(iterSeed)))
		})
	}
}

func propertyIter(t *testing.T, rng *rand.Rand) {
	dir := t.TempDir()
	oracle := NewMemory()
	f, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Replay(); err != nil {
		t.Fatal(err)
	}
	defer func() { f.Close() }()

	var value int64
	// randomRecord returns a lease or a mark with random payload.
	randomRecord := func() Record {
		value++
		rec := Record{Kind: KindLease, Value: value}
		if rng.Intn(3) == 0 {
			rec.Kind = KindMark
			rec.Data = make([]byte, rng.Intn(64))
			rng.Read(rec.Data)
		}
		return rec
	}
	steps := 5 + rng.Intn(40)
	for s := 0; s < steps; s++ {
		switch op := rng.Intn(10); {
		case op < 4: // append one record
			rec := randomRecord()
			if err := f.Append(rec); err != nil {
				t.Fatalf("step %d: file append: %v", s, err)
			}
			if err := oracle.Append(rec); err != nil {
				t.Fatalf("step %d: oracle append: %v", s, err)
			}
		case op < 6: // append a batch of 0–8 records
			batch := make([]Record, rng.Intn(9))
			for i := range batch {
				batch[i] = randomRecord()
			}
			if err := f.AppendBatch(batch); err != nil {
				t.Fatalf("step %d: file append batch: %v", s, err)
			}
			if err := oracle.AppendBatch(batch); err != nil {
				t.Fatalf("step %d: oracle append batch: %v", s, err)
			}
		case op < 8: // snapshot
			blob := make([]byte, 1+rng.Intn(32))
			rng.Read(blob)
			if err := f.Snapshot(blob); err != nil {
				t.Fatalf("step %d: file snapshot: %v", s, err)
			}
			if err := oracle.Snapshot(blob); err != nil {
				t.Fatalf("step %d: oracle snapshot: %v", s, err)
			}
		default: // crash: drop the handle, maybe tear the tail, reopen
			crashFile(t, rng, dir, f)
			g, err := OpenFile(dir, FileOptions{})
			if err != nil {
				t.Fatalf("step %d: reopen: %v", s, err)
			}
			if err := assertMatchesOracle(g, oracle); err != nil {
				t.Fatalf("step %d: after crash: %v", s, err)
			}
			f = g
		}
	}
	// Replay runs once per handle, so the final audit is one more
	// crash/reopen cycle.
	crashFile(t, rng, dir, f)
	g, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := assertMatchesOracle(g, oracle); err != nil {
		t.Fatalf("final: %v", err)
	}
	f = g
}

// crashFile abandons the handle like a kill -9 and, sometimes, mutates
// the bytes past the last synced offset — the region a real power cut
// may tear. Everything at or below syncedOff must survive untouched, so
// the oracle stays the ground truth.
func crashFile(t *testing.T, rng *rand.Rand, dir string, f *File) {
	t.Helper()
	gen, syncedOff := f.Position()
	// No Close: the OS file stays as the last write left it. (The handle
	// leaks until process exit; acceptable in a test.)
	path := WALPath(dir, gen)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// All appends are acknowledged here, so size == syncedOff; the "torn
	// tail" is synthetic garbage appended then cut at a random offset.
	switch rng.Intn(3) {
	case 0:
		garbage := make([]byte, 1+rng.Intn(40))
		rng.Read(garbage)
		w, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(garbage[:rng.Intn(len(garbage))+1]); err != nil {
			t.Fatal(err)
		}
		w.Close()
	case 1:
		if info.Size() > syncedOff {
			if err := os.Truncate(path, syncedOff+rng.Int63n(info.Size()-syncedOff+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func assertMatchesOracle(f *File, oracle *Memory) error {
	gotSnap, gotRecs, err := f.Replay()
	if err != nil {
		return fmt.Errorf("file replay: %v", err)
	}
	wantSnap, wantRecs, err := oracle.Replay()
	if err != nil {
		return fmt.Errorf("oracle replay: %v", err)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		return fmt.Errorf("snapshot mismatch: file %x, oracle %x", gotSnap, wantSnap)
	}
	if len(gotRecs) != len(wantRecs) {
		return fmt.Errorf("record count mismatch: file %d, oracle %d", len(gotRecs), len(wantRecs))
	}
	for i := range gotRecs {
		g, w := gotRecs[i], wantRecs[i]
		if g.Kind != w.Kind || g.Value != w.Value || !bytes.Equal(g.Data, w.Data) {
			return fmt.Errorf("record %d mismatch: file %+v, oracle %+v", i, g, w)
		}
	}
	return nil
}
