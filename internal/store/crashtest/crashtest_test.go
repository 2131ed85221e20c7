package crashtest_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/store/crashtest"
)

// TestCrashChild is the re-exec entry point, not a test: the parent
// below runs the test binary again with SMACS_CRASHTEST_DIR set and this
// function becomes the workload process that gets killed.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv("SMACS_CRASHTEST_DIR")
	if dir == "" {
		t.Skip("crashtest child entry point; driven by TestCrashRecovery")
	}
	if err := crashtest.Child(dir); err != nil {
		fmt.Fprintln(os.Stderr, "crashtest child:", err)
		os.Exit(3)
	}
}

// TestCrashRecovery is the randomized kill-point sweep.
//
// Knobs (all via environment, so CI can pin them):
//
//	SMACS_CRASHTEST_RUNS       number of kill/recover cycles (default 12, 4 with -short)
//	SMACS_CRASHTEST_SEED       RNG seed (default: time-derived, logged)
//	SMACS_CRASHTEST_ARTIFACTS  directory to copy the WALs of a failed run into
//
// The seed fixes each run's ack target and torn truncations, not the
// kill: that lands on wall-clock time (a 1 ms ack-log poll plus sleep
// jitter), so rerunning a seed does not reproduce the WAL a failing run
// saw. The copied artifacts do; ROADMAP item 23 (crash points on a
// simulated disk, replayable from a seed and an operation count) is the
// replayable form.
func TestCrashRecovery(t *testing.T) {
	if os.Getenv("SMACS_CRASHTEST_DIR") != "" {
		t.Skip("child process must not recurse into the parent sweep")
	}
	runs := 12
	if testing.Short() {
		runs = 4
	}
	if s := os.Getenv("SMACS_CRASHTEST_RUNS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("SMACS_CRASHTEST_RUNS=%q: %v", s, err)
		}
		runs = n
	}
	seed := time.Now().UnixNano()
	if s := os.Getenv("SMACS_CRASHTEST_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SMACS_CRASHTEST_SEED=%q: %v", s, err)
		}
		seed = n
	}
	t.Logf("crashtest seed %d (SMACS_CRASHTEST_SEED pins the ack targets and truncations)", seed)
	rng := rand.New(rand.NewSource(seed))
	for run := 0; run < runs; run++ {
		runSeed := rng.Int63()
		t.Run(fmt.Sprintf("run%02d", run), func(t *testing.T) {
			crashOnce(t, rand.New(rand.NewSource(runSeed)))
		})
	}
}

func crashOnce(t *testing.T, rng *rand.Rand) {
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChild$")
	cmd.Env = append(os.Environ(), "SMACS_CRASHTEST_DIR="+dir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()

	// Let the workload reach a random amount of acknowledged progress,
	// then land the kill — a small extra jitter makes mid-write kills
	// (torn ack lines, half-flushed WAL batches) likely.
	target := 1 + rng.Intn(30)
	deadline := time.After(15 * time.Second)
poll:
	for {
		select {
		case err := <-exited:
			t.Fatalf("child exited on its own (%v) before the kill:\n%s", err, out.String())
		case <-deadline:
			break poll // kill wherever it got to
		default:
			if ackLines(dir) >= target {
				break poll
			}
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill child: %v", err)
	}
	<-exited

	fail := func(format string, args ...any) {
		saveArtifacts(t, dir)
		t.Fatalf(format+"\nchild output:\n%s", append(args, out.String())...)
	}

	acks, err := crashtest.ReadAcks(dir)
	if err != nil {
		fail("read acks: %v", err)
	}
	if len(acks.Issued) == 0 {
		fail("child made no acknowledged progress before the kill")
	}
	if err := crashtest.TornTruncate(filepath.Join(dir, "ts"), acks.TSSafe, rng); err != nil {
		fail("torn-truncate ts WAL: %v", err)
	}
	if err := crashtest.TornTruncate(filepath.Join(dir, "chain"), acks.ChainSafe, rng); err != nil {
		fail("torn-truncate chain WAL: %v", err)
	}
	if err := crashtest.Verify(dir, acks, rng); err != nil {
		fail("%v", err)
	}
}

func ackLines(dir string) int {
	b, err := os.ReadFile(filepath.Join(dir, "ack.log"))
	if err != nil {
		return 0
	}
	return bytes.Count(b, []byte("\n"))
}

// saveArtifacts copies the run's WALs and ack log into
// $SMACS_CRASHTEST_ARTIFACTS so CI can upload them from a failed run.
func saveArtifacts(t *testing.T, dir string) {
	t.Helper()
	dst := os.Getenv("SMACS_CRASHTEST_ARTIFACTS")
	if dst == "" {
		return
	}
	dst = filepath.Join(dst, filepath.Base(dir))
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		outF, err := os.Create(target)
		if err != nil {
			return err
		}
		defer outF.Close()
		_, err = io.Copy(outF, in)
		return err
	})
	if err != nil {
		t.Logf("saving artifacts to %s: %v", dst, err)
	} else {
		t.Logf("artifacts saved to %s", dst)
	}
}
