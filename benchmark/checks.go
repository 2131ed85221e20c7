package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/types"
)

// Output checks run after the measured interval, untimed. A run that
// fails one exits non-zero and reports no metrics.

// issuedToken is one token as the client received it, with the request
// that asked for it.
type issuedToken struct {
	req *core.Request
	raw []byte
}

// checkTokens parses every issued token, verifies its signature against
// the service address over the binding its request demands, and audits the
// one-time indexes: none on a reusable token, none twice otherwise.
func checkTokens(tokens []issuedToken, tsAddr types.Address, oneTime bool) error {
	indexes := make([]int64, len(tokens))
	err := parallel(len(tokens), func(i int) error {
		tk, err := core.ParseToken(tokens[i].raw)
		if err != nil {
			return fmt.Errorf("token %d: %w", i, err)
		}
		req := tokens[i].req
		if tk.Type != req.Type {
			return fmt.Errorf("token %d: type %s, requested %s", i, tk.Type, req.Type)
		}
		binding, err := req.Binding()
		if err != nil {
			return fmt.Errorf("token %d: %w", i, err)
		}
		if err := tk.VerifySignature(tsAddr, binding); err != nil {
			return fmt.Errorf("token %d: %w", i, err)
		}
		if tk.OneTime() != oneTime {
			return fmt.Errorf("token %d: one-time index %d, requested one-time=%v", i, tk.Index, oneTime)
		}
		indexes[i] = tk.Index
		return nil
	})
	if err != nil || !oneTime {
		return err
	}
	sort.Slice(indexes, func(i, j int) bool { return indexes[i] < indexes[j] })
	for i := 1; i < len(indexes); i++ {
		if indexes[i] == indexes[i-1] {
			return fmt.Errorf("one-time index %d was issued twice", indexes[i])
		}
	}
	return nil
}

// replayDir replays the WAL under dir (its writers must be closed) without
// re-executing anything.
func replayDir(dir string) ([]store.Record, error) {
	f, err := store.OpenFile(dir, store.FileOptions{Metrics: metrics.NewRegistry()})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, recs, err := f.Replay()
	return recs, err
}

// checkLeaseJournals audits every replica's WAL: the leases a node
// granted must be strictly increasing, or a block of one-time indexes was
// handed out twice.
func checkLeaseJournals(dirs []string) error {
	for _, dir := range dirs {
		recs, err := replayDir(dir)
		if err != nil {
			return err
		}
		var last int64
		for _, rec := range recs {
			if rec.Kind != store.KindLease {
				continue
			}
			if rec.Value <= last {
				return fmt.Errorf("%s: lease %d journaled after lease %d", dir, rec.Value, last)
			}
			last = rec.Value
		}
	}
	return nil
}

// countCommits counts the KindCommit records in a chain WAL.
func countCommits(dir string) (int, error) {
	recs, err := replayDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, rec := range recs {
		if rec.Kind == store.KindCommit {
			n++
		}
	}
	return n, nil
}

// expectedFile is benchmark/expected.json: values recorded from the seed
// commit that no optimisation may move.
type expectedFile struct {
	// Gas is the execution gas (receipt gas minus the intrinsic,
	// calldata-priced part, which varies with the signature bytes) of every
	// class of guarded transaction: "method/token type/one-time/variant".
	Gas map[string]uint64 `json:"gas"`
	// DefaultSeed is the seed the pinned inputs below belong to.
	DefaultSeed int64 `json:"default_seed"`
	// Inputs pins the generator: the digest of the first InputsN draws and
	// how many of them pick a non-whitelisted wallet.
	InputsN      int    `json:"inputs_n"`
	InputsDigest string `json:"inputs_digest"`
	InputsDenied int    `json:"inputs_denied"`
	// OpenArrivals maps run seconds to the arrivals guarded-open generates
	// for the default seed, and how many of those are denied.
	OpenArrivals map[string][2]int `json:"open_arrivals"`
}

//go:embed expected.json
var expectedJSON []byte

// loadExpected parses the embedded expected.json.
func loadExpected() (*expectedFile, error) {
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &exp, nil
}

// gasAudit collects the execution gas seen per class and compares it with
// expected.json: every class must be known and every tx of a class must
// have used exactly the pinned gas.
type gasAudit struct {
	seen map[string]uint64
}

func (a *gasAudit) add(class string, execGas uint64) error {
	if a.seen == nil {
		a.seen = make(map[string]uint64)
	}
	if prev, ok := a.seen[class]; ok && prev != execGas {
		return fmt.Errorf("gas class %s: used %d and %d", class, prev, execGas)
	}
	a.seen[class] = execGas
	return nil
}

func (a *gasAudit) compare() error {
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	for class, got := range a.seen {
		want, ok := exp.Gas[class]
		if !ok {
			all, _ := json.Marshal(a.seen)
			return fmt.Errorf("gas class %s is not pinned in expected.json; this run saw %s", class, all)
		}
		if got != want {
			return fmt.Errorf("gas class %s: used %d, expected.json pins %d", class, got, want)
		}
	}
	return nil
}
