package core_test

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/evmtest"
	"repro/internal/metrics"
	"repro/internal/secp256k1"
	"repro/internal/wallet"
)

// Every token-guard error must reach the chain's evm_txs_total series
// under its own reverted_* label, spelled exactly as dashboards and the
// e2e harness expect. One guarded tx per core error goes through a chain
// with an isolated registry.
func TestRevertOutcomeLabels(t *testing.T) {
	reg := metrics.NewRegistry()
	clock := evmtest.NewClock()
	cfg := evm.DefaultConfig()
	cfg.Now, cfg.Metrics = clock.Now, reg
	env := &evmtest.Env{Chain: evm.NewChain(cfg), Clock: clock}
	for i := 0; i < 3; i++ {
		w := wallet.New(secp256k1.PrivateKeyFromSeed([]byte{'o', byte(i)}), env.Chain)
		env.Chain.Fund(w.Address(), evmtest.Ether(1000))
		env.Wallets = append(env.Wallets, w)
	}

	v := core.NewVerifier(tsKey.Address())
	bm, err := core.NewBitmap(64, 100)
	if err != nil {
		t.Fatal(err)
	}
	v.WithBitmap(bm)
	contract := newProtected(v)
	contract.SetInitialStorageWords(bm.StorageWords())
	guarded := &fixture{env: env, addr: env.Deploy(t, contract), verifier: v}
	bare := &fixture{env: env, addr: env.Deploy(t, newProtected(core.NewVerifier(tsKey.Address())))}

	oneTime := guarded.issue(t, core.SuperType, 0, 1, "")
	env.MustCall(t, 1, guarded.addr, "ping", oneTime)
	stale, err := core.SignToken(tsKey, core.SuperType, clock.Now().Add(-time.Minute), core.NotOneTime,
		core.Binding{Origin: env.Wallets[1].Address(), Contract: guarded.addr})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		outcome string
		f       *fixture
		wallet  int
		opts    wallet.CallOpts
		want    error
	}{
		{"reverted_token_expired", guarded, 1, wallet.WithTokens(wallet.TokenEntry{Contract: guarded.addr, Token: stale}), core.ErrTokenExpired},
		{"reverted_token_used", guarded, 1, oneTime, core.ErrTokenUsed},
		{"reverted_bad_token_sig", guarded, 2, guarded.issue(t, core.SuperType, core.NotOneTime, 1, ""), core.ErrBadTokenSig},
		{"reverted_no_token", guarded, 1, wallet.CallOpts{}, core.ErrNoToken},
		{"reverted_malformed_token", guarded, 1, wallet.CallOpts{Tokens: [][]byte{{0x01}}}, core.ErrMalformedToken},
		{"reverted_no_bitmap", bare, 1, bare.issue(t, core.SuperType, 0, 1, ""), core.ErrNoBitmap},
	} {
		r := env.CallExpectRevert(t, tc.wallet, tc.f.addr, "ping", tc.opts)
		if !errors.Is(r.Err, tc.want) {
			t.Errorf("%s: revert err = %v, want %v", tc.outcome, r.Err, tc.want)
		}
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	body := sb.String()
	for _, outcome := range []string{"accepted", "reverted_token_expired", "reverted_token_used",
		"reverted_bad_token_sig", "reverted_no_token", "reverted_malformed_token", "reverted_no_bitmap"} {
		re := fmt.Sprintf(`(?m)^evm_txs_total\{outcome="%s"\} 1$`, outcome)
		if !regexp.MustCompile(re).MatchString(body) {
			t.Errorf("registry missing %s\n%s", re, body)
		}
	}
	if strings.Contains(body, `outcome="reverted_other"`) {
		t.Errorf("a token error fell through to reverted_other\n%s", body)
	}
}
