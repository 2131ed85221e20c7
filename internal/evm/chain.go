package evm

import (
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"

	"repro/internal/abi"
	"repro/internal/gas"
	"repro/internal/keccak"
	"repro/internal/metrics"
	"repro/internal/rlp"
	"repro/internal/state"
	"repro/internal/types"
)

// Config parameterizes a simulated chain.
type Config struct {
	// ChainID protects transactions against cross-chain replay.
	ChainID uint64
	// BlockGasLimit caps the gas of a single transaction/block.
	BlockGasLimit uint64
	// Price converts gas to ether/USD in receipts and benchmarks.
	Price gas.Price
	// Now supplies block timestamps; defaults to time.Now. Inject a fake
	// clock in tests to exercise token expiry deterministically.
	Now func() time.Time
	// Metrics selects the registry the chain's instrumentation series
	// (evm_txs_total, evm_apply_batch_*_seconds, …) are registered in
	// (nil = a private registry nothing scrapes).
	Metrics *metrics.Registry
}

// DefaultConfig returns a testnet-like configuration.
func DefaultConfig() Config {
	return Config{ChainID: 1337, BlockGasLimit: 12_000_000, Price: gas.DefaultPrice}
}

// Block is a mined block. The simulated chain mines one block per
// transaction, like an instant-sealing geth dev testnet (the environment
// the paper evaluates on).
type Block struct {
	// Number is the block height.
	Number uint64
	// Time is the block timestamp.
	Time time.Time
	// TxHash is the hash of the included transaction (zero for the genesis
	// and deploy blocks without user transactions).
	TxHash types.Hash
	// Receipt is the execution receipt of the included transaction.
	Receipt *Receipt

	// undo is the DB journal length right before the block's own
	// writes: Reorg to a lower height reverts to the first discarded
	// block's undo, so a change made between two blocks (a Fund) belongs
	// to the block it follows.
	undo int
}

// Receipt reports the outcome of a transaction or deployment.
type Receipt struct {
	// Status is true for successful execution.
	Status bool
	// Err is the revert reason for failed executions.
	Err error
	// GasUsed is the total gas consumed.
	GasUsed uint64
	// GasByCategory breaks GasUsed down by accounting category
	// (intrinsic / verify / bitmap / parse / misc / app).
	GasByCategory map[gas.Category]uint64
	// FeeUSD is the fee in US dollars under the chain's price calibration.
	FeeUSD float64
	// Return holds the top-level call's return values.
	Return []any
	// Trace is the full execution trace (consumed by runtime-verification
	// tools).
	Trace *Trace
	// BlockNumber is the height of the including block.
	BlockNumber uint64
	// TxHash identifies the transaction.
	TxHash types.Hash
}

// Chain is a single-node simulated Ethereum chain. All methods are safe for
// concurrent use. Every block keeps its receipt and its undo entries in
// the DB journal for Reorg, so memory grows with height; no daemon hosts
// a chain.
type Chain struct {
	mu         sync.Mutex
	cfg        Config
	db         *state.DB
	contracts  map[types.Address]*Contract
	deployedAt map[types.Address]uint64
	deployerOf map[types.Address]types.Address
	blocks     []*Block
	store      *chainStore
	metrics    *chainMetrics
}

// NewChain creates a chain with a genesis block.
func NewChain(cfg Config) *Chain {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.BlockGasLimit == 0 {
		cfg.BlockGasLimit = 12_000_000
	}
	if cfg.Price == (gas.Price{}) {
		cfg.Price = gas.DefaultPrice
	}
	ch := &Chain{
		cfg:        cfg,
		db:         state.New(),
		contracts:  make(map[types.Address]*Contract),
		deployedAt: make(map[types.Address]uint64),
		deployerOf: make(map[types.Address]types.Address),
		metrics:    newChainMetrics(metrics.Or(cfg.Metrics)),
	}
	ch.blocks = append(ch.blocks, &Block{Number: 0, Time: cfg.Now()})
	return ch
}

// Config returns the chain configuration.
func (ch *Chain) Config() Config { return ch.cfg }

// Now returns the current chain time (next block timestamp).
func (ch *Chain) Now() time.Time { return ch.cfg.Now() }

// Fund credits amount wei to addr — the dev-testnet faucet. It is a setup
// helper: it is not logged and does not refuse a poisoned chain, so call it
// in a recovery bootstrap or follow it with SnapshotToStore. A balance
// holds at most 2²⁵⁶−1 wei: Fund panics on a negative amount or one that
// would pass that bound. The credit commits like a transaction's effects:
// on a view, through ApplyWrites.
func (ch *Chain) Fund(addr types.Address, amount *big.Int) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	v := state.NewView(ch.db)
	v.AddBalance(addr, amount)
	ch.db.ApplyWrites(v.Writes())
}

// Balance returns the current balance of addr. It only inspects the
// in-memory state, poisoned or not.
func (ch *Chain) Balance(addr types.Address) *big.Int {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.db.Balance(addr)
}

// NonceOf returns the current account nonce of addr. It only inspects the
// in-memory state, poisoned or not.
func (ch *Chain) NonceOf(addr types.Address) uint64 {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.db.Nonce(addr)
}

// Deployer returns the account that deployed the contract at addr. This is
// public on-chain information (derivable from the deployment transaction);
// the ECF runtime-verification tool uses it to simulate calls routed
// through a requester's own contracts.
func (ch *Chain) Deployer(addr types.Address) (types.Address, bool) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	d, ok := ch.deployerOf[addr]
	return d, ok
}

// DeployedBy lists the contracts deployed by creator.
func (ch *Chain) DeployedBy(creator types.Address) []types.Address {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	var out []types.Address
	for addr, d := range ch.deployerOf {
		if d == creator {
			out = append(out, addr)
		}
	}
	return out
}

// StorageWordsOf returns the number of distinct storage words the contract
// at addr occupies (used by storage-footprint experiments).
func (ch *Chain) StorageWordsOf(addr types.Address) int {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.db.StorageWords(addr)
}

// ContractAt returns the contract registered at addr.
func (ch *Chain) ContractAt(addr types.Address) (*Contract, bool) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	c, ok := ch.contracts[addr]
	return c, ok
}

// StateDigest returns a keccak digest of the committed world state's
// canonical snapshot encoding. Chains that executed equivalent histories
// digest identically, whatever scheduler produced the commits — the
// serial-equivalence tests assert on it.
func (ch *Chain) StateDigest() (types.Hash, error) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.db.Digest()
}

// Height returns the current block height.
func (ch *Chain) Height() uint64 {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.blocks[len(ch.blocks)-1].Number
}

// BlockByNumber returns the block at the given height. After a durable
// recovery the chain restarts from a snapshot base block, so heights
// below the base are no longer resolvable.
func (ch *Chain) BlockByNumber(n uint64) (*Block, bool) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	base := ch.blocks[0].Number
	if n < base || n-base >= uint64(len(ch.blocks)) {
		return nil, false
	}
	return ch.blocks[n-base], true
}

// Deploy registers a contract on the chain under a CREATE-style address
// (keccak(rlp(creator, nonce))[12:]), bumps the creator's nonce and flags
// the address as a contract — on a view, committed through ApplyWrites —
// and mines a block. Its receipt reports the deployment gas, including
// SStoreSet per pre-allocated storage word (the one-time bitmap cost of
// Table IV), but the creator is debited nothing: the gas is accounted,
// not paid. A poisoned chain refuses it with ErrChainPoisoned.
func (ch *Chain) Deploy(creator types.Address, contract *Contract) (types.Address, *Receipt, error) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if err := ch.poisonedLocked(); err != nil {
		return types.Address{}, nil, err
	}

	v := state.NewView(ch.db)
	enc, err := rlp.EncodeList(creator.Bytes(), v.Nonce(creator))
	if err != nil {
		return types.Address{}, nil, fmt.Errorf("deploy: %w", err)
	}
	h := keccak.Sum256(enc)
	addr := types.BytesToAddress(h[12:])
	if _, taken := ch.contracts[addr]; taken {
		return types.Address{}, nil, fmt.Errorf("deploy: address %s already occupied", addr)
	}

	const createGas = 32000
	meter := gas.NewMeter(ch.cfg.BlockGasLimit)
	if err := meter.Charge(gas.CatIntrinsic, gas.TxBase+createGas); err != nil {
		return types.Address{}, nil, err
	}
	// Code-deposit approximation: 200 gas per "byte", with each declared
	// method contributing a fixed 64-byte footprint.
	codeBytes := uint64(64 * (len(contract.byName) + 1))
	if err := meter.Charge(gas.CatIntrinsic, 200*codeBytes); err != nil {
		return types.Address{}, nil, err
	}
	for i := 0; i < contract.initWords; i++ {
		if err := meter.Charge(gas.CatBitmap, gas.SStoreSet); err != nil {
			return types.Address{}, nil, err
		}
	}

	v.IncNonce(creator)
	v.MarkContract(addr)
	ch.contracts[addr] = contract
	ch.deployedAt[addr] = ch.blocks[len(ch.blocks)-1].Number + 1
	ch.deployerOf[addr] = creator

	receipt := &Receipt{
		Status:        true,
		GasUsed:       meter.Used(),
		GasByCategory: meter.ByCategory(),
		FeeUSD:        ch.cfg.Price.USD(meter.Used()),
	}
	ch.mineLocked(v.Writes(), types.Hash{}, receipt, ch.cfg.Now())
	return addr, receipt, nil
}

// Apply verifies and executes a signed transaction, mining it into a new
// block. It is Execute of a one-transaction batch with the serial
// scheduler, so it persists through the same path; see Execute for the
// full execution API. Verification mirrors Ethereum: signature recovery,
// strict nonce match (replay protection), and balance coverage of value +
// max fee.
func (ch *Chain) Apply(tx *Transaction) (*Receipt, error) {
	res := ch.Execute([]*Transaction{tx}, ExecOptions{Scheduler: SchedulerSerial})
	return res[0].Receipt, res[0].Err
}

// applyOn runs the full state transition of one transaction — signature,
// nonce, and balance checks, gas purchase, execution, revert handling, and
// gas refund — on v, a fresh view of the committed state, without
// touching the DB, mining a block or persisting: the caller commits v's
// write-set (see commitLocked). A nil receipt with a non-nil error means
// the transaction was rejected and v holds no write.
func (ch *Chain) applyOn(v *state.View, tx *Transaction, blockTime time.Time) (*Receipt, error) {
	// Execute prepared the encodings; durable replay and direct callers
	// encode here. Either way they derive from the current fields, so a
	// transaction tampered with between calls recovers a fresh sender.
	p := tx.preparedFor(ch.cfg.ChainID)
	if p == nil {
		var err error
		if p, err = tx.prepare(ch.cfg.ChainID); err != nil {
			return nil, err
		}
	}
	sender, err := tx.senderFor(p.sigHash)
	if err != nil {
		return nil, err
	}
	switch nonce := v.Nonce(sender); {
	case tx.Nonce < nonce:
		return nil, &nonceError{ErrNonceTooLow, tx.Nonce, nonce}
	case tx.Nonce > nonce:
		return nil, &nonceError{ErrNonceTooHigh, tx.Nonce, nonce}
	}

	// A price or value past 256 bits is never covered by a balance.
	gasPrice, okPrice := state.WeiOf(tx.GasPrice)
	value, okValue := state.WeiOf(tx.Value)
	maxFee, okFee := gasPrice.MulUint64(tx.GasLimit)
	need, okNeed := maxFee.Add(value)
	if !(okPrice && okValue && okFee && okNeed) || v.BalanceWei(sender).Cmp(need) < 0 {
		need := new(big.Int).Mul(cpBig(tx.GasPrice), new(big.Int).SetUint64(tx.GasLimit))
		return nil, fmt.Errorf("%w: %s needs %s wei", ErrInsufficientETH, sender, need.Add(need, cpBig(tx.Value)))
	}

	intrinsic := gas.TxBase + gas.CalldataGas(p.wire)
	if intrinsic > tx.GasLimit {
		return nil, fmt.Errorf("%w: intrinsic %d > limit %d", ErrIntrinsicGas, intrinsic, tx.GasLimit)
	}

	// Buy gas up front; refund the unused remainder afterwards.
	v.IncNonce(sender)
	if err := v.SubWei(sender, maxFee); err != nil {
		return nil, err
	}

	meter := gas.NewMeter(tx.GasLimit)
	_ = meter.Charge(gas.CatIntrinsic, intrinsic) // checked above

	trace := newTrace()
	snap := v.Snapshot()

	receipt := &Receipt{Trace: trace, TxHash: p.hash}
	var execErr error
	if tx.Method == "" && tx.RawData == nil {
		// Plain value transfer.
		execErr = v.SubWei(sender, value)
		if execErr == nil {
			v.AddWei(tx.To, value)
		}
	} else {
		receipt.Return, execErr = ch.execute(execParams{
			view:      v,
			origin:    sender,
			caller:    sender,
			to:        tx.To,
			value:     tx.Value,
			appData:   p.app,
			tokens:    tx.Tokens,
			meter:     meter,
			depth:     0,
			blockTime: blockTime,
			trace:     trace,
		})
	}
	if execErr != nil {
		v.RevertToSnapshot(snap)
		receipt.Err = execErr
	}
	receipt.Status = execErr == nil
	receipt.GasUsed = meter.Used()
	receipt.GasByCategory = meter.ByCategory()
	receipt.FeeUSD = ch.cfg.Price.USD(meter.Used())

	// Refund unused gas: at most maxFee, so it cannot overflow.
	refund, _ := gasPrice.MulUint64(meter.Remaining())
	v.AddWei(sender, refund)
	return receipt, nil
}

// nonceError is a nonce mismatch: ErrNonceTooLow or ErrNonceTooHigh with
// both nonces. The speculative wave meets one on every chained
// transaction and discards it, so its text is formatted only when read.
type nonceError struct {
	kind          error
	tx, onAccount uint64
}

func (e *nonceError) Error() string {
	return fmt.Sprintf("%v: tx nonce %d, account nonce %d", e.kind, e.tx, e.onAccount)
}

func (e *nonceError) Unwrap() error { return e.kind }

// StaticCall executes a read-only call (like eth_call) on a view of the
// committed state that it then drops: it never writes, snapshots or
// reverts the DB, and mines no block. The Token Service's
// runtime-verification tools use this to simulate requested calls on a
// forked testnet. A poisoned chain refuses it with ErrChainPoisoned: its
// state is ahead of what the log holds.
func (ch *Chain) StaticCall(from, to types.Address, method string, args []any, tokens [][]byte) ([]any, *Receipt, error) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if err := ch.poisonedLocked(); err != nil {
		return nil, nil, err
	}

	appData, err := abi.Pack(method, args...)
	if err != nil {
		return nil, nil, err
	}
	meter := gas.NewMeter(ch.cfg.BlockGasLimit)
	trace := newTrace()
	ret, execErr := ch.execute(execParams{
		view:      state.NewView(ch.db),
		origin:    from,
		caller:    from,
		to:        to,
		value:     new(big.Int),
		appData:   appData,
		tokens:    tokens,
		meter:     meter,
		depth:     0,
		blockTime: ch.cfg.Now(),
		trace:     trace,
	})
	receipt := &Receipt{
		Status:        execErr == nil,
		Err:           execErr,
		GasUsed:       meter.Used(),
		GasByCategory: meter.ByCategory(),
		FeeUSD:        ch.cfg.Price.USD(meter.Used()),
		Return:        ret,
		Trace:         trace,
	}
	return ret, receipt, execErr
}

// execParams carries the inputs of one call frame execution.
type execParams struct {
	view               *state.View
	origin, caller, to types.Address
	value              *big.Int
	appData            []byte
	tokens             [][]byte
	meter              *gas.Meter
	depth              int
	blockTime          time.Time
	trace              *Trace
}

// execute runs one call frame: resolves the contract and method, moves
// value, runs the handler, and reverts the frame's state changes on error.
// All state access goes through p.view.
func (ch *Chain) execute(p execParams) ([]any, error) {
	contract, ok := ch.contracts[p.to]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrContractNotFound, p.to)
	}
	if len(p.appData) < abi.SelectorLength {
		return nil, fmt.Errorf("%w: calldata too short", ErrUnknownMethod)
	}
	var sel abi.Selector
	copy(sel[:], p.appData[:abi.SelectorLength])
	method, ok := contract.methods[sel]
	if !ok {
		return nil, fmt.Errorf("%w: %s has no method with selector %s", ErrUnknownMethod, contract.name, sel.Hex())
	}
	value := cpBig(p.value)
	if value.Sign() > 0 && !method.Payable {
		return nil, fmt.Errorf("%w: %s.%s", ErrNotPayable, contract.name, method.Name)
	}

	args, err := abi.Decode(p.appData[abi.SelectorLength:], method.Params...)
	if err != nil {
		return nil, fmt.Errorf("decode args of %s.%s: %w", contract.name, method.Name, err)
	}

	snap := p.view.Snapshot()
	if value.Sign() > 0 {
		if err := p.view.SubBalance(p.caller, value); err != nil {
			return nil, err
		}
		p.view.AddBalance(p.to, value)
	}

	frame := &Call{
		chain:     ch,
		view:      p.view,
		origin:    p.origin,
		caller:    p.caller,
		self:      p.to,
		value:     value,
		contract:  contract,
		method:    method,
		args:      args,
		tokens:    p.tokens,
		appData:   p.appData,
		meter:     p.meter,
		depth:     p.depth,
		blockTime: p.blockTime,
		trace:     p.trace,
	}
	p.trace.add(TraceEvent{Kind: TraceCall, Depth: p.depth, From: p.caller, To: p.to, Method: method.Name, Amount: value})
	ret, err := method.Handler(frame)
	p.trace.add(TraceEvent{Kind: TraceReturn, Depth: p.depth, From: p.to, To: p.caller, Method: method.Name, Err: errString(err)})
	if err != nil {
		p.view.RevertToSnapshot(snap)
		return nil, err
	}
	return ret, nil
}

// mineLocked installs ws, the write-set of the given transaction, and
// appends a block containing it. Block numbers continue from the
// previous head rather than len(blocks): after a durable recovery the
// block slice restarts at the snapshot height.
func (ch *Chain) mineLocked(ws state.WriteSet, txHash types.Hash, receipt *Receipt, at time.Time) {
	blk := &Block{
		Number:  ch.blocks[len(ch.blocks)-1].Number + 1,
		Time:    at,
		TxHash:  txHash,
		Receipt: receipt,
		undo:    ch.db.Snapshot(),
	}
	ch.db.ApplyWrites(ws)
	if receipt != nil {
		receipt.BlockNumber = blk.Number
	}
	ch.blocks = append(ch.blocks, blk)
}

// ErrBadReorg is returned for impossible reorg targets.
var ErrBadReorg = errors.New("evm: invalid reorg target")

// Reorg rewinds the chain to the given height, discarding later blocks and
// reverting their state transitions: the state is again the one read at
// that height, setup funding of the genesis block included. It models the 51%-attack scenario of
// § VII-A: an adversary can erase transactions from history but — as the
// security tests demonstrate — still cannot forge tokens. A poisoned chain
// refuses it with ErrChainPoisoned.
func (ch *Chain) Reorg(toHeight uint64) error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if err := ch.poisonedLocked(); err != nil {
		return err
	}
	base := ch.blocks[0].Number
	head := ch.blocks[len(ch.blocks)-1].Number
	if toHeight < base || toHeight > head {
		return fmt.Errorf("%w: height %d, chain spans %d..%d", ErrBadReorg, toHeight, base, head)
	}
	idx := toHeight - base
	if idx+1 < uint64(len(ch.blocks)) {
		ch.db.RevertToSnapshot(ch.blocks[idx+1].undo)
	}
	for addr, height := range ch.deployedAt {
		if height > toHeight {
			delete(ch.contracts, addr)
			delete(ch.deployedAt, addr)
			delete(ch.deployerOf, addr)
		}
	}
	ch.blocks = ch.blocks[:idx+1]
	return nil
}
