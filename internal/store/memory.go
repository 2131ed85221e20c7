package store

import "sync"

// Memory is the in-process Backend: the pre-durability in-memory path
// refactored behind the interface. Appends and snapshots are immediate
// (there is nothing slower than memory to sync to); a process crash loses
// everything, which is exactly the behaviour the file backend exists to
// fix. The property tests use Memory as the oracle: after any sequence of
// appends, snapshots, and simulated crashes, a file backend must replay
// to the same state a Memory backend holds.
type Memory struct {
	mu       sync.Mutex
	snapshot []byte
	records  []Record
	closed   bool
}

// NewMemory creates an empty in-memory backend.
func NewMemory() *Memory { return &Memory{} }

// Append implements Backend.
func (m *Memory) Append(rec Record) error {
	return m.AppendBatch([]Record{rec})
}

// AppendBatch implements Backend: the whole batch lands under one lock,
// and an invalid record rejects the batch before any of it is kept.
func (m *Memory) AppendBatch(recs []Record) error {
	for _, rec := range recs {
		if !rec.Valid() {
			return ErrBadFrame
		}
	}
	if len(recs) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	for _, rec := range recs {
		cp := rec
		if rec.Data != nil {
			cp.Data = append([]byte(nil), rec.Data...)
		}
		m.records = append(m.records, cp)
	}
	return nil
}

// Snapshot implements Backend: it replaces the recovery base and drops
// the records it subsumes.
func (m *Memory) Snapshot(blob []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.snapshot = append([]byte(nil), blob...)
	m.records = nil
	return nil
}

// Replay implements Backend.
func (m *Memory) Replay() (snapshot []byte, records []Record, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, nil, ErrClosed
	}
	if m.snapshot != nil {
		snapshot = append([]byte(nil), m.snapshot...)
	}
	records = append([]Record(nil), m.records...)
	return snapshot, records, nil
}

// Close implements Backend.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
