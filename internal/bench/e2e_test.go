package bench

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// runScenarioT runs one named scenario and returns its row.
func runScenarioT(t *testing.T, name string) E2ERow {
	t.Helper()
	cfg, err := ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	row, err := runScenario(cfg, E2EConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// Every shipped scenario must produce exactly its expected correctness
// counts — the same invariant the CI envelope pins, asserted here per
// scenario so a drift is attributed to the failing profile.
func TestE2EScenarioCounts(t *testing.T) {
	for _, name := range ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg, err := ScenarioByName(name)
			if err != nil {
				t.Fatal(err)
			}
			row := runScenarioT(t, name)
			if want := cfg.ExpectedCounts(); row.Counts != want {
				t.Errorf("counts = %+v\nwant     %+v", row.Counts, want)
			}
			if row.Counts.TSIssued != row.Counts.TokensIssued {
				t.Errorf("server reported %d issued tokens, clients observed %d",
					row.Counts.TSIssued, row.Counts.TokensIssued)
			}
		})
	}
}

// The adversarial flood is the paper's security argument run end-to-end:
// tampered, replayed, and expired tokens all flow through the real HTTP
// issuance path and the batched verification pipeline concurrently with
// honest traffic, and not one may be accepted. CI additionally runs this
// under -race (attackers, honest clients, and the batch submitter all
// share the chain and the HTTP service).
func TestE2EAdversarialFloodRejectsEveryAttack(t *testing.T) {
	row := runScenarioT(t, "adversarial")
	c := row.Counts
	if c.AdvAccepted != 0 {
		t.Fatalf("%d adversarial transactions were accepted; want 0", c.AdvAccepted)
	}
	if c.RejTampered == 0 || c.RejReplayed == 0 || c.RejExpired == 0 {
		t.Fatalf("every attack class must be exercised and rejected, got %+v", c)
	}
	if c.TxRejected != c.RejTampered+c.RejReplayed+c.RejExpired {
		t.Errorf("rejections with unexpected reasons: %d total vs %d classified",
			c.TxRejected, c.RejTampered+c.RejReplayed+c.RejExpired)
	}
}

// The durable scenario is the crash-recovery argument run end-to-end:
// the counts must be indistinguishable from a crash-free run, every
// pre-crash one-time token replayed after recovery must be rejected with
// exactly ErrTokenUsed, and nothing adversarial may slip through. The
// height/nonce continuity assertions run inside runScenario, between the
// two incarnations.
func TestE2EDurableRecoversExactly(t *testing.T) {
	row := runScenarioT(t, "durable")
	c := row.Counts
	cfg, err := ScenarioByName("durable")
	if err != nil {
		t.Fatal(err)
	}
	if c.RejReplayed != cfg.ReplayedOps {
		t.Errorf("post-recovery replays rejected with ErrTokenUsed: %d, want %d", c.RejReplayed, cfg.ReplayedOps)
	}
	if c.AdvAccepted != 0 {
		t.Errorf("%d replayed transactions accepted after recovery; want 0", c.AdvAccepted)
	}
	if want := cfg.ExpectedCounts(); c != want {
		t.Errorf("counts across the crash = %+v\nwant crash-free %+v", c, want)
	}
}

// E2EConfig.Dir holds one subdirectory per scenario: the durable
// scenario's stores sit in <dir>/durable/{ts,chain} next to tokensale's
// replica WALs, not loose at the top.
func TestE2EDirOneSubdirectoryPerScenario(t *testing.T) {
	dir := t.TempDir()
	if _, err := E2E(E2EConfig{Scenarios: []string{"durable", "tokensale"}, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if strings.Join(names, ",") != "durable,tokensale" {
		t.Fatalf("top level of Dir holds %v, want one directory per scenario: [durable tokensale]", names)
	}
	for _, sub := range []string{"ts", "chain"} {
		if fi, err := os.Stat(filepath.Join(dir, "durable", sub)); err != nil || !fi.IsDir() {
			t.Errorf("durable store %s missing: %v", sub, err)
		}
	}
}

// The chaos scenarios are the availability argument run end-to-end: a
// replica of the networked counter group is killed / partitioned /
// degraded mid-rush, a second replica group joins through the live
// membership protocol, or the frontend crashes and an epoch-fenced
// takeover resumes issuance — and the counts must still be exactly
// those of a fault-free run. The fault timing and the victim derive
// from a seed so CI can sweep timings; a failing seed is logged for
// replay. After each run the replica WALs are audited: every replica
// must have granted strictly increasing block leases (a repeated or
// regressed grant would mean a stranded lease was re-issued), and the
// frontend-crash takeover must have fenced epoch ≥ 2 on a majority.
//
//	SMACS_CHAOS_SEED       pins the seed (default: time-derived, logged)
//	SMACS_CHAOS_ARTIFACTS  copies the replica WALs of a failed run there
func TestE2EChaosScenariosSeeded(t *testing.T) {
	seed := time.Now().UnixNano()
	if s := os.Getenv("SMACS_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SMACS_CHAOS_SEED: %v", err)
		}
		seed = v
	}
	t.Logf("chaos seed %d (set SMACS_CHAOS_SEED=%d to replay)", seed, seed)
	for _, name := range []string{"chaos-kill", "chaos-partition", "chaos-slow",
		"chaos-join", "chaos-frontend-crash"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg, err := ScenarioByName(name)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			row, runErr := runScenario(cfg, E2EConfig{Dir: dir, ChaosSeed: seed})
			switch {
			case runErr != nil:
				t.Errorf("seed %d: %v", seed, runErr)
			case row.Counts != cfg.ExpectedCounts():
				t.Errorf("seed %d: counts = %+v\nwant fault-free %+v", seed, row.Counts, cfg.ExpectedCounts())
			case row.Counts.DupOneTimeIndexes != 0:
				t.Errorf("seed %d: %d one-time indexes issued twice", seed, row.Counts.DupOneTimeIndexes)
			case !row.ChaosFaultInjected:
				t.Errorf("seed %d: the fault never fired — the run proves nothing", seed)
			default:
				auditReplicaWALs(t, filepath.Join(dir, name), cfg.Chaos, seed)
			}
			if t.Failed() {
				if art := os.Getenv("SMACS_CHAOS_ARTIFACTS"); art != "" {
					dst := filepath.Join(art, name)
					if err := copyTree(dir, dst); err != nil {
						t.Logf("copying replica WALs: %v", err)
					} else {
						t.Logf("replica WALs of the failed run copied to %s", dst)
					}
				}
			}
		})
	}
}

// auditReplicaWALs replays every replica's WAL after the run and checks
// the grant-side safety invariants directly in the durable record:
// block-lease grants strictly increase per replica (net.Node only
// journals a grant above its accepted frontier, so a violation means a
// stranded lease was handed out twice), and an epoch-fenced takeover
// must have left its promise (epoch ≥ 2) on a majority of replicas.
func auditReplicaWALs(t *testing.T, groupDir, fault string, seed int64) {
	t.Helper()
	fenced := 0
	for i := 0; i < chaosReplicas; i++ {
		nodeDir := filepath.Join(groupDir, "replica"+strconv.Itoa(i))
		f, err := store.OpenFile(nodeDir, store.FileOptions{})
		if err != nil {
			t.Errorf("seed %d: audit replica %d: %v", seed, i, err)
			continue
		}
		_, recs, err := f.Replay()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Errorf("seed %d: audit replica %d: %v", seed, i, err)
			continue
		}
		var lastLease, maxEpoch int64
		grants := 0
		for _, rec := range recs {
			switch rec.Kind {
			case store.KindLease:
				if rec.Value <= lastLease {
					t.Errorf("seed %d: replica %d granted lease %d after %d — a stranded lease was re-issued",
						seed, i, rec.Value, lastLease)
				}
				lastLease = rec.Value
				grants++
			case store.KindEpoch:
				if rec.Value > maxEpoch {
					maxEpoch = rec.Value
				}
			}
		}
		if grants == 0 {
			t.Errorf("seed %d: replica %d granted no leases — the WAL audit proves nothing", seed, i)
		}
		if maxEpoch >= 2 {
			fenced++
		}
	}
	if fault == ChaosFrontendCrash && fenced < chaosReplicas/2+1 {
		t.Errorf("seed %d: takeover epoch fenced on %d/%d replicas, want a majority", seed, fenced, chaosReplicas)
	}
}

// copyTree copies a directory recursively (os.CopyFS arrives in go1.23;
// this module targets 1.22).
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// An incarnation that cannot be built fails its scenario with an error:
// open shuts the half-built incarnation down, it does not dereference a
// nil one. A regular file where the scenario's store directory belongs
// makes the durable counter's store fail to open.
func TestE2EOpenFailureIsAnError(t *testing.T) {
	cfg, err := ScenarioByName("durable")
	if err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runScenario(cfg, E2EConfig{Dir: blocker}); err == nil {
		t.Fatal("scenario with an unopenable store succeeded")
	}
}

func TestE2EUnknownScenario(t *testing.T) {
	if _, err := E2E(E2EConfig{Scenarios: []string{"nope"}}); err == nil {
		t.Fatal("unknown scenario should fail")
	}
	if _, err := ScenariosFor([]string{"mixed", "mixed"}); err == nil {
		t.Fatal("duplicate scenario should fail")
	}
}

// CheckEnvelope must flag drifted counts, missing scenarios, stale
// entries and chaos faults that never fired — the exact failure modes
// the CI gate exists for.
func TestE2ECheckEnvelope(t *testing.T) {
	res := &E2EResult{}
	for _, name := range ScenarioNames() {
		cfg, err := ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res.Rows = append(res.Rows, E2ERow{Scenario: name, Counts: cfg.ExpectedCounts(),
			ChaosFaultInjected: cfg.Chaos != ""})
	}
	env := res.Envelope()
	if err := res.CheckEnvelope(env); err != nil {
		t.Fatalf("self-envelope should pass: %v", err)
	}

	drift := res.Envelope()
	c := drift.Scenarios["adversarial"]
	c.AdvAccepted = 1
	drift.Scenarios["adversarial"] = c
	err := res.CheckEnvelope(drift)
	if err == nil || !strings.Contains(err.Error(), "adversarial") {
		t.Fatalf("drifted envelope should name the scenario, got %v", err)
	}

	missing := res.Envelope()
	delete(missing.Scenarios, "mixed")
	if err := res.CheckEnvelope(missing); err == nil {
		t.Fatal("missing scenario should fail")
	}

	extra := res.Envelope()
	extra.Scenarios["retired"] = E2ECounts{}
	if err := res.CheckEnvelope(extra); err == nil {
		t.Fatal("stale envelope entry should fail when all scenarios ran")
	}

	kill := slices.IndexFunc(res.Rows, func(r E2ERow) bool { return r.Scenario == "chaos-kill" })
	res.Rows[kill].ChaosFaultInjected = false
	err = res.CheckEnvelope(env)
	if err == nil || !strings.Contains(err.Error(), `"chaos-kill": the kill fault never fired`) {
		t.Fatalf("chaos scenario whose fault never fired should fail, got %v", err)
	}
}
