package main

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/gas"
	"repro/internal/metrics"
	"repro/internal/nettest"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/store"
	"repro/internal/transform"
	"repro/internal/ts"
	rnet "repro/internal/ts/replica/net"
	"repro/internal/tshttp"
	"repro/internal/types"
	"repro/internal/wallet"
)

// Stacks are assembled from the layers' exported constructors with shipped
// defaults: lease block 64, shards = GOMAXPROCS, optimistic scheduler,
// caches and fast-mult on. Nothing here imports internal/bench or cmd/*.

const tokenLifetime = time.Hour

// parallel runs f(i) for i in [0,n) on GOMAXPROCS goroutines and returns
// the first error.
func parallel(n int, f func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := f(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// walletSet is the deterministic population of client accounts. Keys do
// not depend on the seed; which of them are hot does.
type walletSet struct {
	keys  []*secp256k1.PrivateKey
	addrs []types.Address
}

func deriveWallets(n int) *walletSet {
	ws := &walletSet{keys: make([]*secp256k1.PrivateKey, n), addrs: make([]types.Address, n)}
	_ = parallel(n, func(i int) error {
		ws.keys[i] = secp256k1.PrivateKeyFromSeed([]byte(fmt.Sprintf("smacs benchmark wallet %d", i)))
		ws.addrs[i] = ws.keys[i].Address()
		return nil
	})
	return ws
}

// Argument-rule fixtures: requests always carry an allowed amount and a
// recipient that is not blacklisted, so the only denials are the
// non-whitelisted senders.
const maxAmount = 64

// benchRules builds the owner's ACRs: the 7,373-entry sender whitelist
// plus argument lists for the two arguments of transfer/buy.
func benchRules(g *gen, ws *walletSet) *rules.RuleSet {
	rs := rules.NewRuleSet()
	var senders []string
	for r, w := range g.walletAt {
		if allowed(r) {
			senders = append(senders, ws.addrs[w].Hex())
		}
	}
	rs.SetSenderList(rules.NewList(rules.Whitelist, senders...))
	var amounts []string
	for a := 1; a <= maxAmount; a++ {
		amounts = append(amounts, fmt.Sprint(a))
	}
	rs.SetArgumentList("amount", rules.NewList(rules.Whitelist, amounts...))
	var banned []string
	for i := 0; i < 16; i++ {
		banned = append(banned, types.Address{0xba, byte(i)}.Hex())
	}
	rs.SetArgumentList("recipient", rules.NewList(rules.Blacklist, banned...))
	return rs
}

// httpServer serves one handler on n loopback listeners and tags every
// connection with the index of its listener.
type httpServer struct {
	srv *http.Server
	lns []net.Listener
	wg  sync.WaitGroup
}

func serveHTTP(h http.Handler, n int) (*httpServer, error) {
	s := &httpServer{srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}}
	index := make(map[net.Listener]int, n)
	s.srv.BaseContext = func(l net.Listener) context.Context {
		return context.WithValue(context.Background(), listenerKey{}, index[l])
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = s.close()
			return nil, err
		}
		index[l] = i
		s.lns = append(s.lns, l)
	}
	for _, l := range s.lns {
		s.wg.Add(1)
		go func(l net.Listener) {
			defer s.wg.Done()
			_ = s.srv.Serve(l) // returns ErrServerClosed on close
		}(l)
	}
	return s, nil
}

func (s *httpServer) addr(i int) string { return s.lns[i].Addr().String() }
func (s *httpServer) url(i int) string  { return "http://" + s.addr(i) }

func (s *httpServer) close() error {
	err := s.srv.Close()
	for _, l := range s.lns {
		_ = l.Close() // a listener never handed to Serve is not the server's to close
	}
	s.wg.Wait()
	return err
}

// closers tears a stack down in reverse order of construction.
type closers []func() error

func (c *closers) add(f func() error) { *c = append(*c, f) }

func (c *closers) close() error {
	var errs []error
	for i := len(*c) - 1; i >= 0; i-- {
		errs = append(errs, (*c)[i]())
	}
	*c = nil
	return errors.Join(errs...)
}

// openFile opens a file store with default options on the run's registry,
// wrapped in the timing decorator when the run is traced.
func openFile(dir string, reg *metrics.Registry, tr *tracer, kind spanKind, cl *closers) (store.Backend, *tracedBackend, error) {
	f, err := store.OpenFile(dir, store.FileOptions{Metrics: reg})
	if err != nil {
		return nil, nil, err
	}
	cl.add(f.Close)
	if tr == nil {
		return f, nil, nil
	}
	tb := &tracedBackend{Backend: f, tr: tr, kind: kind}
	return tb, tb, nil
}

// tsStack is a Token Service behind its HTTP front end, with one listener
// and one client per load-generator worker.
type tsStack struct {
	svc     *ts.Service
	clients []*tshttp.Client
	// curOp[w] is the op worker w is waiting on; the handler middleware
	// reads it to name the span that caused the request.
	curOp []paddedInt64
	// outer and lease are the traced counters (nil when untraced or when
	// the stack has no counter).
	outer, lease *tracedCounter
}

// paddedInt64 keeps each worker's atomic on its own cache line.
type paddedInt64 struct {
	atomic.Int64
	_ [56]byte
}

type tsConfig struct {
	key      *secp256k1.PrivateKey
	contract types.Address
	rules    *rules.RuleSet
	// underlying is the counter beneath the ShardedCounter (nil = the
	// workload issues no one-time tokens over HTTP).
	underlying ts.Counter
	workers    int
	reg        *metrics.Registry
	tr         *tracer
}

func newTSStack(cfg tsConfig, cl *closers) (*tsStack, error) {
	st := &tsStack{curOp: make([]paddedInt64, cfg.workers)}
	var counter ts.Counter
	if cfg.underlying != nil {
		under := cfg.underlying
		if cfg.tr != nil {
			st.lease = &tracedCounter{inner: under, tr: cfg.tr, kind: spLease}
			under = st.lease
		}
		sharded, err := ts.NewShardedCounter(under, runtime.GOMAXPROCS(0), leaseBlock)
		if err != nil {
			return nil, err
		}
		counter = sharded
		if cfg.tr != nil {
			st.outer = &tracedCounter{inner: sharded, tr: cfg.tr, kind: spCounterNext}
			counter = st.outer
		}
	}
	svc, err := ts.New(ts.Config{
		Key: cfg.key, Contract: cfg.contract, Rules: cfg.rules, Lifetime: tokenLifetime,
		Counter: counter, RequireProof: true, Metrics: cfg.reg,
	})
	if err != nil {
		return nil, err
	}
	st.svc = svc
	handler := tshttp.NewServerWithOptions(svc, "", tshttp.ServerOptions{Registry: cfg.reg}).Handler()
	if cfg.tr != nil {
		handler = cfg.tr.middleware(spHandler, func(r *http.Request) int64 {
			return st.curOp[listenerIndex(r.Context())].Load()
		}, handler)
	}
	srv, err := serveHTTP(handler, cfg.workers)
	if err != nil {
		return nil, err
	}
	cl.add(srv.close)
	for w := 0; w < cfg.workers; w++ {
		st.clients = append(st.clients, tshttp.NewClient(srv.url(w), ""))
	}
	return st, nil
}

// quorum is the Sec. VII-B counter deployment: three WAL-backed replica
// nodes, each behind a delaying proxy, and one coordinator.
type quorum struct {
	coord    *rnet.Coordinator
	proxies  []*nettest.Proxy
	backends []*tracedBackend
	dirs     []string
}

const (
	quorumReplicas = 3
	proxyDelay     = time.Millisecond
)

func newQuorum(dir string, reg *metrics.Registry, tr *tracer, cl *closers) (*quorum, error) {
	q := &quorum{}
	var peers []string
	for i := 0; i < quorumReplicas; i++ {
		ndir := filepath.Join(dir, fmt.Sprintf("node-%d", i))
		backend, tb, err := openFile(ndir, reg, tr, spAppendNode, cl)
		if err != nil {
			return nil, err
		}
		q.dirs = append(q.dirs, ndir)
		if tb != nil {
			q.backends = append(q.backends, tb)
		}
		node, err := rnet.OpenNode(backend)
		if err != nil {
			return nil, err
		}
		handler := node.Handler()
		if tr != nil {
			handler = tr.middleware(spNodeHandler, headerID, handler)
		}
		srv, err := serveHTTP(handler, 1)
		if err != nil {
			return nil, err
		}
		cl.add(srv.close)
		proxy, err := nettest.NewProxy(srv.addr(0))
		if err != nil {
			return nil, err
		}
		cl.add(proxy.Close)
		proxy.SetDelay(proxyDelay)
		q.proxies = append(q.proxies, proxy)
		peers = append(peers, proxy.URL())
	}
	opts := rnet.Options{Metrics: reg}
	if tr != nil {
		// The coordinator's own pooled default, plus the header stamp.
		opts.Client = &http.Client{Transport: &tracedTransport{tr: tr,
			inner: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 8}}}
	}
	coord, err := rnet.NewCoordinator(peers, opts)
	if err != nil {
		return nil, err
	}
	q.coord = coord
	return q, nil
}

// forwardedBytes sums Proxy.Stats over the three proxies.
func (q *quorum) forwardedBytes() uint64 {
	var total uint64
	for _, p := range q.proxies {
		_, _, _, b := p.Stats()
		total += b
	}
	return total
}

// chainStack is a chain on a file store with the benchmark contract
// deployed and every wallet funded.
type chainStack struct {
	chain   *evm.Chain
	target  types.Address
	tsKey   *secp256k1.PrivateKey
	dir     string
	backend *tracedBackend
	hook    func([]*evm.Transaction)
}

// Storage slots of the benchmark contract.
const (
	slotSold    uint64 = 0
	slotPerUser uint64 = 1
	bitmapBase  uint64 = 1 << 32
)

// benchContract is the legacy contract transform.Enable guards: put
// writes the caller's own slot (disjoint write sets), buy bumps one shared
// counter (every tx conflicts), and the two views are left unguarded so
// the output checks can read the final counters.
func benchContract() *evm.Contract {
	c := evm.NewContract("BenchStore")
	own := func(a types.Address) types.Hash { return evm.Slot(slotPerUser, a.Bytes()) }
	c.MustAddMethod(evm.Method{
		Name: "put", Params: []any{(*big.Int)(nil)}, Visibility: evm.Public,
		Handler: func(call *evm.Call) ([]any, error) {
			v, _ := call.Arg(0).(*big.Int)
			var w types.Hash
			v.FillBytes(w[:])
			return nil, call.Store(own(call.Caller()), w)
		},
	})
	c.MustAddMethod(evm.Method{
		Name: "buy", Params: []any{types.Address{}, (*big.Int)(nil)}, Visibility: evm.Public,
		Handler: func(call *evm.Call) ([]any, error) {
			sold, err := call.LoadUint(gas.CatApp, evm.SlotN(slotSold))
			if err != nil {
				return nil, err
			}
			return nil, call.StoreUint(gas.CatApp, evm.SlotN(slotSold), sold+1)
		},
	})
	c.MustAddMethod(evm.Method{
		Name: "get", Params: []any{types.Address{}}, Visibility: evm.Public,
		Handler: func(call *evm.Call) ([]any, error) {
			who, _ := call.Arg(0).(types.Address)
			w, err := call.Load(own(who))
			if err != nil {
				return nil, err
			}
			return []any{new(big.Int).SetBytes(w[:])}, nil
		},
	})
	c.MustAddMethod(evm.Method{
		Name: "sold", Visibility: evm.Public,
		Handler: func(call *evm.Call) ([]any, error) {
			sold, err := call.LoadUint(gas.CatApp, evm.SlotN(slotSold))
			if err != nil {
				return nil, err
			}
			return []any{new(big.Int).SetUint64(sold)}, nil
		},
	})
	return c
}

func newChainStack(dir string, ws *walletSet, tsKey *secp256k1.PrivateKey, reg *metrics.Registry, tr *tracer, cl *closers) (*chainStack, error) {
	cfg := evm.DefaultConfig()
	cfg.Metrics = reg
	cs := &chainStack{chain: evm.NewChain(cfg), tsKey: tsKey, dir: filepath.Join(dir, "chain")}
	bm, err := core.NewBitmap(bitmapBits, bitmapBase)
	if err != nil {
		return nil, err
	}
	verifier := core.NewVerifier(tsKey.Address()).WithBitmap(bm)
	guarded := transform.Enable(benchContract(), verifier, transform.Options{Skip: []string{"get", "sold"}})
	owner := secp256k1.PrivateKeyFromSeed([]byte("smacs benchmark owner"))
	cs.target, _, err = cs.chain.Deploy(owner.Address(), guarded)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	funds := new(big.Int).Mul(big.NewInt(1000), big.NewInt(1e18))
	for _, a := range ws.addrs {
		cs.chain.Fund(a, funds)
	}
	backend, tb, err := openFile(cs.dir, reg, tr, spAppendChain, cl)
	if err != nil {
		return nil, err
	}
	cs.backend = tb
	cs.chain.AttachStore(backend, 0)
	core.RegisterCacheMetrics(reg)
	cs.hook = tr.prehook(core.BatchTokenPrehook(tsKey.Address(), cfg.ChainID))
	return cs, nil
}

// execute runs one block through the shipped scheduler.
func (cs *chainStack) execute(txs []*evm.Transaction) []evm.BatchResult {
	return cs.chain.Execute(txs, evm.ExecOptions{Scheduler: evm.SchedulerOptimistic, PrevalidateBatch: cs.hook})
}

// newTx builds and signs one guarded call the way wallet.BuildTx does,
// with the nonce the driver tracks instead of a chain read.
func (cs *chainStack) newTx(key *secp256k1.PrivateKey, nonce uint64, method string, args []any, tk core.Token) (*evm.Transaction, error) {
	cfg := cs.chain.Config()
	tx := &evm.Transaction{
		Nonce: nonce, To: cs.target, Value: new(big.Int), GasLimit: wallet.DefaultGasLimit, GasPrice: cfg.Price.Wei(1),
		Method: method, Args: args,
		Tokens: wallet.WithTokens(wallet.TokenEntry{Contract: cs.target, Token: tk}).Tokens,
	}
	if err := evm.SignTx(tx, key, cfg.ChainID); err != nil {
		return nil, err
	}
	return tx, nil
}
