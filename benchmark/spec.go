package main

// The benchmark's own statement of what it measures. BENCHMARK.json at the
// repo root repeats the workload and metric tables for the driver;
// `-validate` fails when the two disagree.

// metricSpec names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change is a regression;
// per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" | "lower"
	Bound  float64
	// Layer is the repo module a per-layer metric belongs to.
	Layer string
	// Def is the one-line definition the README repeats.
	Def string
	// Local marks a metric the benchmark reports but BENCHMARK.json cannot
	// declare, so it is left out of the driver's result line.
	Local bool
}

// endToEnd are the six metrics a wallet user, contract owner or operator
// sees. failed_share is Local: BENCHMARK.json may only declare metrics that
// are never 0, with a bound that is a share of the median, and this one
// must be 0 and may not rise at all. The driver reads it from the result
// line's attempted/failed pair; -compare gates it at +0.
var endToEnd = []metricSpec{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Def: "correct ops completed per second of measured wall time (median over 500 ms slices)"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "median latency of ops that ran their whole path; in the open loop from the op's intended start"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25,
		Def: "process user+sys CPU (getrusage) per op (median over slices)"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10,
		Def: "runtime.MemStats.Mallocs per op (median over slices)"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "wall time from process start to the first measured op: key derivation, deploys, pre-signing, warm-up"},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0, Local: true,
		Def: "ops with an unexpected outcome / ops attempted; any failure fails the run"},
}

// declared returns the metrics of list that BENCHMARK.json declares.
func declared(list []metricSpec) []metricSpec {
	var out []metricSpec
	for _, m := range list {
		if !m.Local {
			out = append(out, m)
		}
	}
	return out
}

var perLayer = []metricSpec{
	{Layer: "wallet", Name: "wallet.sign_request_us", Unit: "us", Better: "lower", Def: "median core.SignRequest (proof of possession)"},
	{Layer: "wallet", Name: "wallet.build_tx_us", Unit: "us", Better: "lower", Def: "median build + evm.SignTx of one guarded tx"},

	{Layer: "tshttp", Name: "tshttp.roundtrip_us", Unit: "us", Better: "lower", Def: "median Client.RequestToken(s) call"},
	{Layer: "tshttp", Name: "tshttp.handler_us", Unit: "us", Better: "lower", Def: "median server handler span (middleware around Server.Handler)"},
	{Layer: "tshttp", Name: "tshttp.wire_us", Unit: "us", Better: "lower", Def: "median roundtrip - handler of the same op: client encode, loopback TCP, server accept"},
	{Layer: "tshttp", Name: "tshttp.request_bytes", Unit: "B", Better: "lower", Def: "mean request body bytes"},
	{Layer: "tshttp", Name: "tshttp.response_bytes", Unit: "B", Better: "lower", Def: "mean response body bytes"},

	{Layer: "ts", Name: "ts.handler_self_us", Unit: "us", Better: "lower", Def: "median handler span minus the part its counter spans cover"},
	{Layer: "ts", Name: "ts.issue_us", Unit: "us", Better: "lower", Def: "replay: mean Service.Issue, single-threaded, local counter"},
	{Layer: "ts", Name: "ts.counter_next_us", Unit: "us", Better: "lower", Def: "median Counter.Next as the service calls it"},
	{Layer: "ts", Name: "ts.counter_next_p99_us", Unit: "us", Better: "lower", Def: "p99 Counter.Next (the lease refill)"},
	{Layer: "ts", Name: "ts.lease_rounds_per_token", Unit: "ratio", Better: "lower", Def: "underlying-counter Next calls per one-time token"},
	{Layer: "ts", Name: "ts.denied_share", Unit: "ratio", Better: "lower", Def: "requests denied by the rules / requests"},

	{Layer: "rules", Name: "rules.check_us", Unit: "us", Better: "lower", Def: "replay: mean RuleSet.Check"},

	{Layer: "core", Name: "core.verify_proof_us", Unit: "us", Better: "lower", Def: "replay: mean Request.VerifyProof"},
	{Layer: "core", Name: "core.sign_token_us", Unit: "us", Better: "lower", Def: "replay: mean core.SignToken"},
	{Layer: "core", Name: "core.token_verify_us", Unit: "us", Better: "lower", Def: "replay: mean Token.VerifySignature on never-seen tokens (cache miss)"},
	{Layer: "core", Name: "core.token_bytes", Unit: "B", Better: "lower", Def: "mean encoded token length"},
	{Layer: "core", Name: "core.token_cache_hit_share", Unit: "ratio", Better: "higher", Def: "share of committed txs whose token signer was already cached: 1 - cache misses / txs"},

	{Layer: "secp256k1", Name: "secp256k1.sign_us", Unit: "us", Better: "lower", Def: "replay: mean Sign on the workload's digests"},
	{Layer: "secp256k1", Name: "secp256k1.recover_us", Unit: "us", Better: "lower", Def: "replay: mean RecoverAddress"},
	{Layer: "secp256k1", Name: "secp256k1.recover_batch_item_us", Unit: "us", Better: "lower", Def: "replay: RecoverAddressBatch of 64, per item"},

	{Layer: "replica", Name: "replica.round_us", Unit: "us", Better: "lower", Def: "median Coordinator.Next (state read + grant round)"},
	{Layer: "replica", Name: "replica.round_p99_us", Unit: "us", Better: "lower", Def: "p99 Coordinator.Next"},
	{Layer: "replica", Name: "replica.rounds_per_token", Unit: "ratio", Better: "lower", Def: "Coordinator.Next calls per token"},
	{Layer: "replica", Name: "replica.node_handler_us", Unit: "us", Better: "lower", Def: "median replica Node handler span"},
	{Layer: "replica", Name: "replica.msgs_per_round", Unit: "count", Better: "lower", Def: "replica RPCs sent per Coordinator.Next"},
	{Layer: "replica", Name: "replica.bytes_per_round", Unit: "B", Better: "lower", Def: "bytes through the three proxies per Coordinator.Next (Proxy.Stats)"},
	{Layer: "replica", Name: "replica.retries_per_round", Unit: "ratio", Better: "lower", Def: "coordinator_grant_retries_total per Coordinator.Next"},

	{Layer: "store", Name: "store.append_us", Unit: "us", Better: "lower", Def: "median Backend.Append (write + fsync)"},
	{Layer: "store", Name: "store.append_p99_us", Unit: "us", Better: "lower", Def: "p99 Backend.Append"},
	{Layer: "store", Name: "store.appends_per_op", Unit: "ratio", Better: "lower", Def: "Backend.Append calls per op"},
	{Layer: "store", Name: "store.bytes_per_op", Unit: "B", Better: "lower", Def: "store_wal_bytes_written_total per op"},
	{Layer: "store", Name: "store.fsyncs_per_op", Unit: "ratio", Better: "lower", Def: "store_wal_fsync_total per op"},
	{Layer: "store", Name: "store.busy_share", Unit: "ratio", Better: "lower", Def: "share of traced wall time with at least one Append in flight"},

	{Layer: "evm", Name: "evm.execute_us_per_tx", Unit: "us", Better: "lower", Def: "Chain.Execute wall time per tx"},
	{Layer: "evm", Name: "evm.block_ms", Unit: "ms", Better: "lower", Def: "median Chain.Execute call"},
	{Layer: "evm", Name: "evm.prevalidate_us_per_tx", Unit: "us", Better: "lower", Def: "Execute start to last PrevalidateBatch return, per tx (sender recovery + token prehook)"},
	{Layer: "evm", Name: "evm.execute_self_us_per_tx", Unit: "us", Better: "lower", Def: "execute - prevalidate - appends, per tx (speculation, validation, commit)"},
	{Layer: "evm", Name: "evm.conflicts_per_tx", Unit: "ratio", Better: "lower", Def: "evm_exec_conflicts_total per tx"},
	{Layer: "evm", Name: "evm.reexec_per_tx", Unit: "ratio", Better: "lower", Def: "evm_exec_reexecutions per tx"},
	{Layer: "evm", Name: "evm.sender_cache_hit_share", Unit: "ratio", Better: "higher", Def: "share of committed txs whose sender was already cached: 1 - cache misses / txs"},
	{Layer: "evm", Name: "evm.codec_us_per_tx", Unit: "us", Better: "lower", Def: "replay: WireData + EncodeCommit + DecodeCommit per tx"},
	{Layer: "evm", Name: "evm.gas_per_tx", Unit: "gas", Better: "lower", Def: "mean receipt GasUsed"},
	{Layer: "evm", Name: "evm.block_txs", Unit: "count", Better: "higher", Def: "mean txs per Chain.Execute call"},

	{Layer: "driver", Name: "driver.op_p90_ms", Unit: "ms", Better: "lower", Def: "p90 op latency"},
	{Layer: "driver", Name: "driver.op_p99_ms", Unit: "ms", Better: "lower", Def: "p99 op latency"},
	{Layer: "driver", Name: "driver.within_limit_share", Unit: "ratio", Better: "higher", Def: "ops within the workload's latency limit / ops attempted"},
	{Layer: "driver", Name: "driver.lateness_p99_ms", Unit: "ms", Better: "lower", Def: "open loop: p99 of sent - scheduled"},
	{Layer: "driver", Name: "driver.backlog_max", Unit: "count", Better: "lower", Def: "open loop: most ops sent but not finished"},
	{Layer: "driver", Name: "driver.stage_token_ms", Unit: "ms", Better: "lower", Def: "median SignRequest + token request"},
	{Layer: "driver", Name: "driver.stage_sign_ms", Unit: "ms", Better: "lower", Def: "median build + SignTx"},
	{Layer: "driver", Name: "driver.stage_queue_ms", Unit: "ms", Better: "lower", Def: "median wait for the block producer"},
	{Layer: "driver", Name: "driver.stage_execute_ms", Unit: "ms", Better: "lower", Def: "median Chain.Execute of the op's block"},
	{Layer: "driver", Name: "driver.budget_residual_share", Unit: "ratio", Better: "lower", Def: "median 1 - (time inside recorded stages / op time)"},
	{Layer: "driver", Name: "driver.trace_overhead_share", Unit: "ratio", Better: "lower", Def: "traced vs untraced slices of the same run: ops_per_s lost (closed loop) or cpu_ms_per_op gained (open loop)"},
	{Layer: "driver", Name: "driver.peak_rss_mb", Unit: "MB", Better: "lower", Def: "ru_maxrss at exit"},
}

// workloadSpec is one row of the workload table.
type workloadSpec struct {
	Name string
	Why  string
	// LimitMs is the latency limit behind driver.within_limit_share.
	LimitMs float64
	New     func() workload
}

var workloads = []workloadSpec{
	{Name: "issue-http", LimitMs: 10, New: func() workload { return &issueWorkload{} },
		Why: "Fig. 9: closed-loop POST /v1/token with proof of possession; tshttp, ts, rules, core, secp256k1 work, evm/store/replica idle"},
	{Name: "issue-quorum", LimitMs: 50, New: func() workload { return &issueWorkload{quorum: true} },
		Why: "Sec. VII-B deployment: batches of 4 one-time tokens through ShardedCounter over a 3-replica WAL-backed quorum behind 1 ms proxies"},
	{Name: "exec-disjoint", LimitMs: 100, New: func() workload { return &execWorkload{} },
		Why: "scheduler best case and the durable-commit path: 64 distinct senders per block, own slots, reusable tokens that hit the cache"},
	{Name: "exec-hot", LimitMs: 200, New: func() workload { return &execWorkload{hot: true} },
		Why: "same layers used the opposite way: one shared slot, nonce chains, fresh one-time tokens, so re-validation, the bitmap and cache misses"},
	{Name: "guarded-open", LimitMs: 50, New: func() workload { return &openWorkload{} },
		Why: "open loop, Poisson arrivals at 300 ops/s through the whole path of one guarded transaction; latency from the intended start, free of coordinated omission"},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Sizes shared by every workload (ISSUE 11, "Shared inputs").
const (
	numWallets = 8192 // 2x the 4,096-entry sender and token-signer LRUs
	// deniedEvery makes every tenth zipf rank a non-whitelisted wallet:
	// 8192 - 819 = 7,373 whitelist entries, and the denied share of the
	// traffic is the same on every seed (the seed picks which wallets sit
	// at which ranks, not how much mass the denied ranks carry).
	deniedEvery = 10
	zipfS       = 1.1
	leaseBlock  = 64 // shipped ShardedCounter lease block
	blockTxs    = 64 // txs per Execute call
	warmupOps   = 2048
	warmupMax   = 2 // seconds
	sliceMillis = 500
	// defaultSeconds is the measured interval of a run; BENCHMARK.json
	// repeats it as run_seconds.
	defaultSeconds = 15
	// openRate is the offered load of guarded-open in ops/s: fixed here,
	// never derived at run time (see README, "guarded-open rate").
	openRate = 300
	// execPool* size the pre-signed tx pool of the exec workloads: this
	// many txs per second of --seconds, about twice what the seed commit
	// executes on this box (1.7k and 0.73k tx/s), because every pooled tx
	// costs a signature of set-up time. A run that still drains its pool
	// before the deadline says so (note pool_drained, and a warning).
	execPoolDisjoint = 3328
	execPoolHot      = 1536
	// replayInputs is how many captured inputs each replay-pass
	// measurement of a traced run covers; a smoke run takes fewer.
	replayInputs      = 2048
	smokeReplayInputs = 32
	// bitmapBits holds every one-time index a 60 s run can issue, so the
	// Alg. 2 window never slides and bitmap gas stays in two classes.
	bitmapBits = 131072
)
