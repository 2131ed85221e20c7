package store

import "repro/internal/metrics"

// WAL metric names exported by the file backend.
const (
	MetricWALAppends    = "store_wal_appends_total"
	MetricWALBytes      = "store_wal_bytes_written_total"
	MetricWALFsyncs     = "store_wal_fsync_total"
	MetricFsyncBatch    = "store_wal_fsync_batch_records"
	MetricSnapshotSecs  = "store_snapshot_seconds"
	MetricReplaySecs    = "store_replay_seconds"
	MetricReplayRecords = "store_replay_records_total"
	MetricTornTails     = "store_torn_tails_recovered_total"
)

// fileMetrics holds the file backend's instrumentation handles. Backends
// sharing a registry aggregate into the same series.
type fileMetrics struct {
	appends       *metrics.Counter
	bytes         *metrics.Counter
	fsyncs        *metrics.Counter
	fsyncBatch    *metrics.Histogram
	snapshotSecs  *metrics.Histogram
	replaySecs    *metrics.Histogram
	replayRecords *metrics.Counter
	tornTails     *metrics.Counter
}

func newFileMetrics(reg *metrics.Registry) *fileMetrics {
	return &fileMetrics{
		appends: reg.Counter(MetricWALAppends, "Records queued for the WAL."),
		bytes:   reg.Counter(MetricWALBytes, "Bytes written to the WAL."),
		fsyncs:  reg.Counter(MetricWALFsyncs, "Group-commit fsyncs of the WAL."),
		fsyncBatch: reg.Histogram(MetricFsyncBatch,
			"Records covered by one WAL fsync (group-commit amortization).", metrics.DefSizeBuckets),
		snapshotSecs: reg.Histogram(MetricSnapshotSecs,
			"Snapshot persistence duration (write, fsync, rotate).", nil),
		replaySecs: reg.Histogram(MetricReplaySecs,
			"Recovery replay duration (snapshot read + WAL scan).", nil),
		replayRecords: reg.Counter(MetricReplayRecords, "Records recovered by Replay."),
		tornTails:     reg.Counter(MetricTornTails, "Torn WAL tails truncated during Replay."),
	}
}
