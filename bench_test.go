// Benchmarks regenerating the paper's evaluation (one target per table and
// figure; docs/BENCHMARKS.md, "Paper evaluation modes", lists the matching
// smacs-bench command for each). Gas figures are attached
// as custom metrics since they are deterministic per operation; wall-clock
// throughput comes from the standard ns/op output.
package smacs_test

import (
	"math/big"
	"testing"

	smacs "repro"
	"repro/internal/bench"
	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/gas"
	"repro/internal/keccak"
	"repro/internal/rtverify/ecf"
	"repro/internal/rtverify/hydra"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/ts"
	"repro/internal/types"
	"repro/internal/wallet"
)

// --- Tab. II (E1): single-token processing cost ---

func benchTableII(b *testing.B, tp core.TokenType, oneTime bool) {
	b.Helper()
	res, err := bench.TableII()
	if err != nil {
		b.Fatal(err)
	}
	rows := res.Plain
	if oneTime {
		rows = res.OneTime
	}
	row := rows[tp]
	// Wall-clock per protected call (issue + tx).
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.ChainRun(1, tp, oneTime); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(row.Verify), "verify-gas")
	b.ReportMetric(float64(row.Total), "total-gas")
	b.ReportMetric(row.USD, "usd")
}

func BenchmarkTableII_Super(b *testing.B)    { benchTableII(b, core.SuperType, false) }
func BenchmarkTableII_Method(b *testing.B)   { benchTableII(b, core.MethodType, false) }
func BenchmarkTableII_Argument(b *testing.B) { benchTableII(b, core.ArgumentType, false) }
func BenchmarkTableII_SuperOneTime(b *testing.B) {
	benchTableII(b, core.SuperType, true)
}
func BenchmarkTableII_ArgumentOneTime(b *testing.B) {
	benchTableII(b, core.ArgumentType, true)
}

// --- Tab. III (E2): call-chain cost for one-time argument tokens ---

func benchChain(b *testing.B, depth int) {
	b.Helper()
	row, err := bench.ChainRun(depth, core.ArgumentType, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.ChainRun(depth, core.ArgumentType, true); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(row.Total), "total-gas")
	b.ReportMetric(float64(row.Verify), "verify-gas")
	b.ReportMetric(float64(row.Parse), "parse-gas")
}

func BenchmarkTableIII_Depth1(b *testing.B) { benchChain(b, 1) }
func BenchmarkTableIII_Depth2(b *testing.B) { benchChain(b, 2) }
func BenchmarkTableIII_Depth3(b *testing.B) { benchChain(b, 3) }
func BenchmarkTableIII_Depth4(b *testing.B) { benchChain(b, 4) }

// --- Tab. IV (E3): bitmap deployment cost ---

func BenchmarkTableIV_BitmapDeploy(b *testing.B) {
	res, err := bench.TableIV()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.TableIV(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.Rows[0].DeployGas), "deploy-gas-35tps")
	b.ReportMetric(res.Rows[0].USD, "usd-35tps")
}

// --- Fig. 8 (E4): aggregated verification gas ---

func BenchmarkFigure8_Aggregated(b *testing.B) {
	res, err := bench.Figure8()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.ChainRun(4, core.ArgumentType, true); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.TotalGas["super"][3]), "super-4tokens-gas")
	b.ReportMetric(float64(res.TotalGas["argument-onetime"][3]), "argot-4tokens-gas")
}

// --- Fig. 9 (E5): Token Service throughput ---

func newFig9Service(b *testing.B) (*ts.Service, map[string]*core.Request) {
	b.Helper()
	client := types.Address{0xc1}
	target := types.Address{0x01}
	rs := rules.NewRuleSet()
	rs.SetSenderList(rules.NewList(rules.Whitelist, core.ValueKey(client)))
	svc, err := ts.New(ts.Config{Key: secp256k1.PrivateKeyFromSeed([]byte("fig9 bench"))})
	if err != nil {
		b.Fatal(err)
	}
	reqs := map[string]*core.Request{
		"super": {Type: core.SuperType, Contract: target, Sender: client},
		"method": {Type: core.MethodType, Contract: target, Sender: client,
			Method: "act(address,uint256,string)"},
		"argument": {Type: core.ArgumentType, Contract: target, Sender: client,
			Method: "act", Args: []core.NamedArg{
				{Name: "to", Value: types.Address{0xdd}},
				{Name: "amount", Value: uint64(42)},
			}},
	}
	return svc, reqs
}

func benchIssue(b *testing.B, kind string, oneTime bool) {
	svc, reqs := newFig9Service(b)
	req := *reqs[kind]
	req.OneTime = oneTime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Issue(&req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9_IssueSuper(b *testing.B)    { benchIssue(b, "super", false) }
func BenchmarkFigure9_IssueMethod(b *testing.B)   { benchIssue(b, "method", false) }
func BenchmarkFigure9_IssueArgument(b *testing.B) { benchIssue(b, "argument", false) }
func BenchmarkFigure9_IssueArgumentOneTime(b *testing.B) {
	benchIssue(b, "argument", true)
}

// --- § VI-B (E6): runtime-verification tools ---

func BenchmarkTools_HydraValidate(b *testing.B) {
	tool, err := hydra.New(
		hydra.Head{Name: "solidity", Build: contracts.NewCalculatorFormula},
		hydra.Head{Name: "vyper", Build: contracts.NewCalculatorLoop},
		hydra.Head{Name: "serpent", Build: contracts.NewCalculatorPairwise},
	)
	if err != nil {
		b.Fatal(err)
	}
	req := &core.Request{
		Type: core.ArgumentType, Contract: types.Address{1}, Sender: types.Address{0xc1},
		Method: "sumTo", Args: []core.NamedArg{{Name: "n", Value: uint64(1000)}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tool.Validate(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTools_ECFValidate(b *testing.B) {
	chain := evm.NewChain(evm.DefaultConfig())
	owner := wallet.FromSeed("ecf bench owner", chain)
	depositor := wallet.FromSeed("ecf bench victim", chain)
	chain.Fund(owner.Address(), smacsEther(1000))
	chain.Fund(depositor.Address(), smacsEther(1000))
	bankAddr, _, err := chain.Deploy(owner.Address(), contracts.NewBank())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := depositor.Call(bankAddr, "addBalance", wallet.CallOpts{Value: smacsEther(10)}); err != nil {
		b.Fatal(err)
	}
	checker := ecf.New(chain, bankAddr)
	req := &core.Request{
		Type: core.ArgumentType, Contract: bankAddr,
		Sender: depositor.Address(), Method: "withdraw",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := checker.Validate(req); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: on-chain whitelist baseline ---

func BenchmarkBaseline_WhitelistAdd(b *testing.B) {
	chain := evm.NewChain(evm.DefaultConfig())
	owner := wallet.FromSeed("baseline bench", chain)
	chain.Fund(owner.Address(), smacsEther(1_000_000))
	gate, _, err := chain.Deploy(owner.Address(), contracts.NewWhitelistGate(owner.Address()))
	if err != nil {
		b.Fatal(err)
	}
	var gasTotal uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var addr types.Address
		addr[0] = 0xb5
		addr[1] = byte(i >> 16)
		addr[2] = byte(i >> 8)
		addr[3] = byte(i)
		r, err := owner.Call(gate, "add", wallet.CallOpts{}, addr)
		if err != nil {
			b.Fatal(err)
		}
		gasTotal += r.GasUsed
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(gasTotal)/float64(b.N), "gas/add")
	}
}

// --- Ablations: design choices measured against their alternatives ---

// BenchmarkAblationBitmapVsMap compares the two one-time-token registries:
// the windowed bitmap of Alg. 2 (bounded storage, possible misses) versus
// the naive per-index map § IV-C dismisses (no misses, one storage word per
// token forever). Gas per use and storage words are reported as metrics.
func BenchmarkAblationBitmapVsMap(b *testing.B) {
	type registry struct {
		name  string
		build func() (*evm.Contract, func() int)
	}
	registries := []registry{
		{"bitmap", func() (*evm.Contract, func() int) {
			bm, err := core.NewBitmap(65536, 0)
			if err != nil {
				b.Fatal(err)
			}
			c := evm.NewContract("BitmapReg")
			c.MustAddMethod(evm.Method{
				Name: "use", Params: []any{uint64(0)}, Visibility: evm.Public,
				Handler: func(call *evm.Call) ([]any, error) {
					idx, _ := call.Arg(0).(uint64)
					return nil, bm.Use(call, int64(idx))
				},
			})
			return c, bm.StorageWords
		}},
		{"naive-map", func() (*evm.Contract, func() int) {
			tracker := core.NewNaiveTracker(0)
			c := evm.NewContract("NaiveReg")
			c.MustAddMethod(evm.Method{
				Name: "use", Params: []any{uint64(0)}, Visibility: evm.Public,
				Handler: func(call *evm.Call) ([]any, error) {
					idx, _ := call.Arg(0).(uint64)
					return nil, tracker.Use(call, int64(idx))
				},
			})
			return c, nil
		}},
	}
	for _, reg := range registries {
		b.Run(reg.name, func(b *testing.B) {
			chain := evm.NewChain(evm.DefaultConfig())
			owner := wallet.FromSeed("ablation reg", chain)
			chain.Fund(owner.Address(), smacsEther(1_000_000))
			contract, words := reg.build()
			addr, _, err := chain.Deploy(owner.Address(), contract)
			if err != nil {
				b.Fatal(err)
			}
			var gasTotal uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := owner.Call(addr, "use", wallet.CallOpts{}, uint64(i))
				if err != nil || !r.Status {
					b.Fatalf("use(%d): %v %v", i, err, r.Err)
				}
				gasTotal += r.GasByCategory[gas.CatBitmap]
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(gasTotal)/float64(b.N), "gas/use")
			}
			if words != nil {
				b.ReportMetric(float64(words()), "storage-words")
			} else {
				b.ReportMetric(float64(chain.StorageWordsOf(addr)), "storage-words")
			}
		})
	}
}

// BenchmarkAblationRecoverVsVerify compares the ecrecover idiom (what the
// contract does) against classic verification with a stored public key.
func BenchmarkAblationRecoverVsVerify(b *testing.B) {
	key := secp256k1.PrivateKeyFromSeed([]byte("ablation"))
	digest := keccak.Sum256([]byte("ablation message"))
	sig, err := secp256k1.Sign(key, digest)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("recover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := secp256k1.RecoverAddress(digest, sig); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !secp256k1.Verify(key.Pub, digest, sig) {
				b.Fatal("verify failed")
			}
		}
	})
}

// BenchmarkAblationRuleSetSize measures issuance latency against whitelist
// size (the off-chain analogue of the on-chain whitelist cost).
func BenchmarkAblationRuleSetSize(b *testing.B) {
	for _, size := range []int{10, 1000, 100000} {
		b.Run(byteCount(size), func(b *testing.B) {
			client := types.Address{0xc1}
			list := rules.NewList(rules.Whitelist, core.ValueKey(client))
			for i := 0; i < size; i++ {
				list.Add(core.ValueKey(types.Address{0xf0, byte(i >> 16), byte(i >> 8), byte(i)}))
			}
			rs := rules.NewRuleSet()
			rs.SetSenderList(list)
			svc, err := ts.New(ts.Config{
				Key:   secp256k1.PrivateKeyFromSeed([]byte("ablation rules")),
				Rules: rs,
			})
			if err != nil {
				b.Fatal(err)
			}
			req := &core.Request{Type: core.SuperType, Contract: types.Address{1}, Sender: client}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Issue(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byteCount(n int) string {
	switch {
	case n >= 1000000:
		return "1M-entries"
	case n >= 100000:
		return "100k-entries"
	case n >= 1000:
		return "1k-entries"
	default:
		return "10-entries"
	}
}

func smacsEther(n int64) *big.Int { return smacs.Ether(n) }
