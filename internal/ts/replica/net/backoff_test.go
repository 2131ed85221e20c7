package net

import (
	"math/rand"
	"testing"
	"time"
)

// TestBackoffDelayBounded pins the flake guard for chaos CI: no jitter
// roll, at any contention level, may exceed the configured cap, and the
// worst-case total stall of a full grant duel (every propose round
// backing off at the cap) stays far below the chaos-scenario deadline.
// Deterministic seeds make a violation reproducible, and the sweep
// covers contention levels past the internal growth clamp.
func TestBackoffDelayBounded(t *testing.T) {
	const cap = DefaultBackoffCap
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for contention := 0; contention <= 40; contention++ {
			for i := 0; i < 2000; i++ {
				d := backoffDelay(contention, rng, cap)
				if d < time.Millisecond {
					t.Fatalf("seed %d contention %d: delay %v below 1ms floor", seed, contention, d)
				}
				if d > cap {
					t.Fatalf("seed %d contention %d: delay %v exceeds cap %v", seed, contention, d, cap)
				}
				// Low contention must also respect the exponential ceiling,
				// not just the cap — otherwise first-conflict backoffs could
				// jump straight to the cap and stall fast paths.
				if contention > 0 && contention < 5 {
					if ceil := time.Duration(1<<uint(contention)) * time.Millisecond; d > ceil {
						t.Fatalf("seed %d contention %d: delay %v exceeds 2^c ceiling %v",
							seed, contention, d, ceil)
					}
				}
			}
		}
	}

	// The analyzable end-to-end bound: a coordinator that loses every
	// grant round sleeps at most maxProposeRounds times, each ≤ cap.
	worst := time.Duration(maxProposeRounds) * cap
	if limit := 10 * time.Second; worst >= limit {
		t.Fatalf("worst-case duel stall %v is not safely under the %v chaos deadline budget", worst, limit)
	}
}

// TestBackoffDelaySubMillisecondCap pins that the cap is a hard bound
// even below the 1ms jitter floor: a 200µs cap must never be exceeded,
// or the documented worst-case duel stall (maxProposeRounds × cap)
// silently grows 5× for fast-timing configurations.
func TestBackoffDelaySubMillisecondCap(t *testing.T) {
	for _, cap := range []time.Duration{200 * time.Microsecond, time.Microsecond, time.Millisecond} {
		rng := rand.New(rand.NewSource(99))
		for contention := 0; contention <= 20; contention++ {
			for i := 0; i < 500; i++ {
				if d := backoffDelay(contention, rng, cap); d > cap || d <= 0 {
					t.Fatalf("cap %v contention %d: delay %v outside (0, cap]", cap, contention, d)
				}
			}
		}
	}
}

// TestBackoffDelayDeterministic pins that backoffDelay is a pure function
// of its source: a fixed seed reproduces the exact delay sequence, which
// is what lets the bound tests above replay a violation.
func TestBackoffDelayDeterministic(t *testing.T) {
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for contention := 0; contention <= 20; contention++ {
		for i := 0; i < 100; i++ {
			da := backoffDelay(contention, a, DefaultBackoffCap)
			db := backoffDelay(contention, b, DefaultBackoffCap)
			if da != db {
				t.Fatalf("contention %d draw %d: %v != %v under identical seeds", contention, i, da, db)
			}
		}
	}
}
