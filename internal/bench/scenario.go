package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Workload names select the contract topology an e2e scenario drives.
const (
	// WorkloadStorage targets a SMACS-enabled SimpleStorage (set/get).
	WorkloadStorage = "storage"
	// WorkloadSale targets a SMACS-enabled TokenSale (payable buy).
	WorkloadSale = "sale"
	// WorkloadChain targets a chain of SMACS-enabled relay links
	// (§ IV-D call chains); every hop verifies its own token.
	WorkloadChain = "chain"
)

// ScenarioConfig declaratively describes one end-to-end scenario: how many
// wallet clients run, what tokens they obtain from the (real, HTTP) Token
// Service, which contract topology the signed guarded transactions hit,
// and how many adversarial operations ride along. Every field that affects
// correctness counts is deterministic, so a scenario's accept/reject
// tallies can be pinned in the CI envelope (out/e2e-envelope.json).
type ScenarioConfig struct {
	// Name identifies the scenario (see ScenarioNames).
	Name string `json:"name"`
	// Description is a one-line summary printed by Format.
	Description string `json:"description"`
	// Workload selects the contract topology (storage, sale, chain).
	Workload string `json:"workload"`
	// Clients is the number of concurrent honest wallet clients.
	Clients int `json:"clients"`
	// Ops is the number of operations each honest client performs.
	Ops int `json:"opsPerClient"`
	// TokenType is the token type honest writes request.
	TokenType core.TokenType `json:"tokenType"`
	// OneTime requests the one-time property on honest tokens (requires
	// the target verifier to carry a bitmap, which the harness attaches).
	OneTime bool `json:"oneTime"`
	// ChainDepth is the number of relay links (chain workload only).
	ChainDepth int `json:"chainDepth,omitempty"`
	// ReadEvery makes every ReadEvery-th op of a client a token-guarded
	// read served through Chain.StaticCall (0 = writes only).
	ReadEvery int `json:"readEvery,omitempty"`
	// DeniedClients is the number of extra clients left off the sender
	// whitelist: each performs Ops token requests that the Token Service
	// must all reject.
	DeniedClients int `json:"deniedClients,omitempty"`
	// TamperedOps is the number of adversarial ops that obtain a valid
	// token and mutate it before use; all must be rejected on-chain.
	TamperedOps int `json:"tamperedOps,omitempty"`
	// ReplayedOps is the number of adversarial ops that use a one-time
	// token once (legitimately) and then replay it; every replay must be
	// rejected on-chain.
	ReplayedOps int `json:"replayedOps,omitempty"`
	// ExpiredOps is the number of adversarial ops that obtain an
	// already-expired token (from a Token Service frontend whose
	// configured lifetime is negative); all must be rejected on-chain.
	ExpiredOps int `json:"expiredOps,omitempty"`
	// ReplicatedCounter backs the sharded one-time counter with a
	// networked 3-replica quorum group (§ VII-B, internal/ts/replica/net)
	// instead of a local counter: WAL-backed replica servers on loopback,
	// each behind a pass-through TCP proxy (internal/nettest).
	ReplicatedCounter bool `json:"replicatedCounter,omitempty"`
	// RequireProof demands a proof of possession on every token request,
	// exercising the client-side request signing over HTTP.
	RequireProof bool `json:"requireProof,omitempty"`
	// Chaos runs the scenario on the same quorum group as
	// ReplicatedCounter (implying it) and injects the named fault into it
	// mid-rush: a network fault (ChaosKill, ChaosPartition, ChaosSlow) on
	// one replica's proxy, healed before the run ends, or a membership
	// fault (ChaosJoin, ChaosFrontendCrash) on the frontend layer. The
	// group tolerates the single fault, so the correctness counts must
	// equal a fault-free run's: no one-time index issued twice, no
	// accepted transaction lost, every denial carrying its exact reason.
	// Mutually exclusive with Durable.
	Chaos string `json:"chaos,omitempty"`
	// Durable backs the Token Service counter and the chain with
	// file-backed stores (internal/store) and crashes the whole world
	// mid-run: phase 1 performs roughly half of each client's ops, every
	// handle is abandoned without Close (the kill), and phase 2 recovers
	// from the WALs before running the rest. ReplayedOps one-time tokens
	// are spent before the crash and replayed after recovery, so their
	// rejection proves the spent-index bitmap state survived it. The
	// correctness counts are identical to a crash-free run — that is the
	// durability contract the envelope pins.
	Durable bool `json:"durable,omitempty"`
	// TokenBatch is the number of ops whose tokens a client fetches per
	// POST /v1/tokens round-trip.
	TokenBatch int `json:"tokenBatch"`
	// TxBatch is the number of signed transactions per Chain.Execute
	// call.
	TxBatch int `json:"txBatch"`
	// Workers is the worker count handed to Execute (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// ScenarioNames lists the shipped scenario profiles in run order.
func ScenarioNames() []string {
	return []string{"quickstart", "tokensale", "callchain", "adversarial", "mixed", "durable",
		"chaos-kill", "chaos-partition", "chaos-slow", "chaos-join", "chaos-frontend-crash"}
}

// ScenarioByName returns the named scenario profile at smoke scale (small,
// deterministic, CI-friendly) or full scale (large enough for meaningful
// throughput numbers).
func ScenarioByName(name string, smoke bool) (ScenarioConfig, error) {
	pick := func(smokeN, fullN int) int {
		if smoke {
			return smokeN
		}
		return fullN
	}
	switch name {
	case "quickstart":
		return ScenarioConfig{
			Name:        "quickstart",
			Description: "single-rule whitelist, method tokens, guarded set() writes",
			Workload:    WorkloadStorage,
			Clients:     pick(4, 8),
			Ops:         pick(6, 150),
			TokenType:   core.MethodType,
			TokenBatch:  8,
			TxBatch:     16,
		}, nil
	case "tokensale":
		return ScenarioConfig{
			Name: "tokensale",
			Description: "sale rush: one-time super tokens, proof of possession, " +
				"replica-quorum counter, non-whitelisted buyers denied",
			Workload:          WorkloadSale,
			Clients:           pick(4, 12),
			Ops:               pick(5, 75),
			TokenType:         core.SuperType,
			OneTime:           true,
			DeniedClients:     pick(2, 4),
			ReplicatedCounter: true,
			RequireProof:      true,
			TokenBatch:        5,
			TxBatch:           16,
		}, nil
	case "callchain":
		return ScenarioConfig{
			Name:        "callchain",
			Description: "multi-contract relay chain, one method token per hop",
			Workload:    WorkloadChain,
			Clients:     pick(3, 6),
			Ops:         pick(4, 60),
			TokenType:   core.MethodType,
			ChainDepth:  3,
			TokenBatch:  4,
			TxBatch:     8,
		}, nil
	case "adversarial":
		return ScenarioConfig{
			Name: "adversarial",
			Description: "flood of tampered, replayed, and expired tokens " +
				"riding alongside honest traffic; every attack must be rejected",
			Workload:    WorkloadStorage,
			Clients:     pick(2, 4),
			Ops:         pick(4, 50),
			TokenType:   core.MethodType,
			TamperedOps: pick(6, 100),
			ReplayedOps: pick(6, 100),
			ExpiredOps:  pick(6, 100),
			TokenBatch:  6,
			TxBatch:     16,
		}, nil
	case "mixed":
		return ScenarioConfig{
			Name:        "mixed",
			Description: "interleaved read/write workload: guarded set() txs and get() static calls",
			Workload:    WorkloadStorage,
			Clients:     pick(4, 8),
			Ops:         pick(8, 120),
			TokenType:   core.MethodType,
			ReadEvery:   2,
			TokenBatch:  8,
			TxBatch:     16,
		}, nil
	case "durable":
		return ScenarioConfig{
			Name: "durable",
			Description: "file-backed stores killed mid-run: recovery must keep every " +
				"committed write and reject every replayed one-time token",
			Workload:    WorkloadStorage,
			Clients:     pick(3, 6),
			Ops:         pick(6, 60),
			TokenType:   core.MethodType,
			OneTime:     true,
			ReplayedOps: pick(5, 30),
			Durable:     true,
			TokenBatch:  6,
			TxBatch:     8,
		}, nil
	case "chaos-kill":
		return chaosScenario(name, ChaosKill,
			"replica killed mid-rush: connections reset, rejoin under live traffic", pick), nil
	case "chaos-partition":
		return chaosScenario(name, ChaosPartition,
			"replica partitioned mid-rush: traffic blackholed until the partition heals", pick), nil
	case "chaos-slow":
		return chaosScenario(name, ChaosSlow,
			"replica degraded mid-rush: every byte through it delayed", pick), nil
	case "chaos-join":
		return chaosScenario(name, ChaosJoin,
			"replica group joins mid-rush: live reshard, traffic spreads across both frontends", pick), nil
	case "chaos-frontend-crash":
		return chaosScenario(name, ChaosFrontendCrash,
			"frontend crashes mid-rush: epoch-fenced takeover resumes issuance, remainders burn", pick), nil
	default:
		return ScenarioConfig{}, fmt.Errorf("bench: unknown scenario %q (supported: %s)",
			name, strings.Join(ScenarioNames(), ", "))
	}
}

// chaosScenario is the shared shape of the chaos profiles: a sale
// rush of one-time super tokens against the networked replica group,
// with denied buyers and replay attacks riding along so the envelope
// pins denial reasons and replay rejections under the fault too. Only
// the injected fault differs — a network fault on one replica
// (kill/partition/slow) or a membership fault on the frontend layer
// (join/frontend-crash); either way the correctness counts must match
// a fault-free run exactly.
func chaosScenario(name, fault, desc string, pick func(int, int) int) ScenarioConfig {
	return ScenarioConfig{
		Name:          name,
		Description:   desc,
		Workload:      WorkloadSale,
		Clients:       pick(4, 8),
		Ops:           pick(6, 60),
		TokenType:     core.SuperType,
		OneTime:       true,
		DeniedClients: pick(2, 3),
		ReplayedOps:   pick(5, 24),
		Chaos:         fault,
		TokenBatch:    5,
		TxBatch:       16,
	}
}

// ScenariosFor resolves a list of scenario names (nil or empty = all
// profiles) into configs, rejecting unknown and duplicate names.
func ScenariosFor(names []string, smoke bool) ([]ScenarioConfig, error) {
	if len(names) == 0 {
		names = ScenarioNames()
	}
	seen := make(map[string]bool, len(names))
	out := make([]ScenarioConfig, 0, len(names))
	for _, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("bench: scenario %q listed twice", name)
		}
		seen[name] = true
		cfg, err := ScenarioByName(name, smoke)
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	return out, nil
}

// ExpectedCounts returns the correctness counts a healthy pipeline must
// produce for the scenario: what the CI envelope pins and the smoke tests
// assert. Token and transaction outcomes are fully determined by the
// config; throughput and latency are not (and are advisory-only).
func (c ScenarioConfig) ExpectedCounts() E2ECounts {
	tokensPerOp := 1
	if c.Workload == WorkloadChain {
		tokensPerOp = c.ChainDepth
	}
	reads := 0
	if c.ReadEvery > 0 {
		for op := 0; op < c.Ops; op++ {
			if (op+1)%c.ReadEvery == 0 {
				reads++
			}
		}
		reads *= c.Clients
	}
	writes := c.Clients*c.Ops - reads
	honestTokens := c.Clients * c.Ops * tokensPerOp
	advTokens := c.TamperedOps + c.ReplayedOps + c.ExpiredOps
	deniedTokens := c.DeniedClients * c.Ops
	return E2ECounts{
		TokenRequests: honestTokens + advTokens + deniedTokens,
		TokensIssued:  honestTokens + advTokens,
		TokensDenied:  deniedTokens,
		TSIssued:      honestTokens + advTokens,
		TSRejected:    deniedTokens,
		TxSubmitted:   writes + c.TamperedOps + 2*c.ReplayedOps + c.ExpiredOps,
		TxAccepted:    writes + c.ReplayedOps, // first use of a replayed token is legitimate
		TxRejected:    advTokens,
		ReadsOK:       reads,
		RejTampered:   c.TamperedOps,
		RejReplayed:   c.ReplayedOps,
		RejExpired:    c.ExpiredOps,
	}
}
