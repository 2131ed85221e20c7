package store

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// The file backend must account appends, fsyncs, bytes, and replay on its
// configured registry.
func TestFileBackendMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	f, err := OpenFile(dir, FileOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := f.Append(Record{Kind: KindMark, Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	body := sb.String()
	for _, re := range []string{
		`(?m)^store_wal_appends_total 3$`,
		`(?m)^store_wal_fsync_total 3$`, // FsyncBatch 1 ⇒ one sync per append
		`(?m)^store_wal_fsync_batch_records_count 3$`,
		`(?m)^store_wal_fsync_batch_records_sum 3$`,
	} {
		if !regexp.MustCompile(re).MatchString(body) {
			t.Errorf("registry missing %s\n%s", re, body)
		}
	}
	if c := reg.Counter(MetricWALBytes, ""); c.Value() == 0 {
		t.Error("no WAL bytes accounted")
	}

	// Reopen + replay on a fresh registry: the three records come back.
	reg2 := metrics.NewRegistry()
	f2, err := OpenFile(dir, FileOptions{Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	_, recs, err := f2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if c := reg2.Counter(MetricReplayRecords, ""); c.Value() != 3 {
		t.Errorf("replay records counter = %d, want 3", c.Value())
	}
	if h := reg2.Histogram(MetricReplaySecs, "", nil); h.Count() != 1 {
		t.Errorf("replay duration observed %d times, want 1", h.Count())
	}
}

// An AppendBatch is one group-commit unit: every record counts as an
// append, but the batch costs a single fsync covering all of them, and an
// empty batch costs nothing.
func TestFileBackendAppendBatchMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	f, err := OpenFile(t.TempDir(), FileOptions{FsyncBatch: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if c := reg.Counter(MetricWALFsyncs, ""); c.Value() != 0 {
		t.Fatalf("empty batch synced %d times", c.Value())
	}
	batch := []Record{{Kind: KindLease, Value: 1}, {Kind: KindMark, Value: 2, Data: []byte("x")}, {Kind: KindLease, Value: 3}}
	if err := f.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	body := sb.String()
	for _, re := range []string{
		`(?m)^store_wal_appends_total 3$`,
		`(?m)^store_wal_fsync_total 1$`,
		`(?m)^store_wal_fsync_batch_records_count 1$`,
		`(?m)^store_wal_fsync_batch_records_sum 3$`,
	} {
		if !regexp.MustCompile(re).MatchString(body) {
			t.Errorf("registry missing %s\n%s", re, body)
		}
	}
}
