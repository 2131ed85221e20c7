package bench

// The durable scenario (ScenarioConfig.Durable) runs the full SMACS
// pipeline on file-backed stores (internal/store) and crashes it mid-run.
// runScenario builds two incarnations through the same open, in
// <dir>/durable/ts and <dir>/durable/chain: phase 1 performs roughly half
// of every client's operations and the legitimate first use of each
// to-be-replayed one-time token, then every store handle is abandoned
// without Close, the state a kill -9 leaves behind. Phase 2 reopens the
// same directories, recovers the counter and the chain from their WALs,
// and runs the remainder, including the replay of every token spent
// before the crash; it closes its stores at the end. A healthy recovery
// produces exactly the counts of a crash-free run: no committed write
// lost (heights and nonces survive), no spent one-time index forgotten
// (every replay rejected with ErrTokenUsed), no index issued twice (fresh
// tokens keep being accepted).

// durableChainSnapEvery / durableCounterSnapEvery are the snapshot
// cadences of the durable scenario's stores: small enough that the
// scenario's run crosses at least one rotation, so recovery exercises the
// snapshot-plus-log-suffix path rather than pure log replay.
const (
	durableChainSnapEvery   = 8
	durableCounterSnapEvery = 2
)
