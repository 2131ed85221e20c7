package evm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"time"

	"repro/internal/abi"
	"repro/internal/gas"
	"repro/internal/keccak"
	"repro/internal/state"
	"repro/internal/types"
)

// MaxCallDepth bounds message-call recursion, as on Ethereum.
const MaxCallDepth = 1024

// ErrMaxCallDepth is returned when a call chain exceeds MaxCallDepth.
var ErrMaxCallDepth = errors.New("evm: max call depth exceeded")

// Call is the execution context of one call frame. It models the EVM's
// transaction-context objects: Origin (tx.origin), Caller (msg.sender),
// Self (address(this)), Sig (msg.sig), Data (msg.data), and Value
// (msg.value). All storage and compute performed through it is gas-charged.
type Call struct {
	chain     *Chain
	view      *state.View
	origin    types.Address
	caller    types.Address
	self      types.Address
	value     *big.Int
	contract  *Contract
	method    *Method
	args      []any
	tokens    [][]byte
	appData   []byte
	meter     *gas.Meter
	depth     int
	blockTime time.Time
	trace     *Trace
}

// Origin returns tx.origin: the externally owned account that signed the
// top-level transaction.
func (c *Call) Origin() types.Address { return c.origin }

// Caller returns msg.sender for the current frame.
func (c *Call) Caller() types.Address { return c.caller }

// Self returns address(this).
func (c *Call) Self() types.Address { return c.self }

// Value returns msg.value (a copy).
func (c *Call) Value() *big.Int {
	if c.value == nil {
		return new(big.Int)
	}
	return new(big.Int).Set(c.value)
}

// Args returns the decoded application arguments of the call.
func (c *Call) Args() []any { return c.args }

// Arg returns the i-th argument, or nil when out of range.
func (c *Call) Arg(i int) any {
	if i < 0 || i >= len(c.args) {
		return nil
	}
	return c.args[i]
}

// Tokens returns the SMACS token array carried by the transaction.
func (c *Call) Tokens() [][]byte { return c.tokens }

// Sig returns msg.sig, the 4-byte selector of the invoked method.
func (c *Call) Sig() abi.Selector { return c.method.selector }

// Data returns msg.data: the application calldata (selector ‖ encoded
// args), excluding the token array (see Transaction.AppData for why).
func (c *Call) Data() []byte { return c.appData }

// MethodName returns the invoked method's bare name.
func (c *Call) MethodName() string { return c.method.Name }

// Depth returns the call depth (0 for the top-level frame).
func (c *Call) Depth() int { return c.depth }

// BlockTime returns the timestamp of the block executing the transaction
// (Solidity's block.timestamp / now).
func (c *Call) BlockTime() time.Time { return c.blockTime }

// GasUsed reports the transaction's gas consumption so far.
func (c *Call) GasUsed() uint64 { return c.meter.Used() }

// Charge consumes gas under an explicit accounting category. The SMACS
// verification preamble uses this to attribute costs to the
// Verify/Bitmap/Parse/Misc buckets of Tables II and III.
func (c *Call) Charge(cat gas.Category, amount uint64) error {
	return c.meter.Charge(cat, amount)
}

// UseGas consumes gas under the application category.
func (c *Call) UseGas(amount uint64) error {
	return c.meter.Charge(gas.CatApp, amount)
}

// Slot derives the storage slot of a mapping entry: keccak256(key ‖ base),
// following Solidity's storage layout.
func Slot(base uint64, key []byte) types.Hash {
	baseWord := SlotN(base)
	return types.Hash(keccak.Sum256Concat(key, baseWord[:]))
}

// SlotN returns the storage slot for a fixed variable index.
func SlotN(n uint64) types.Hash {
	var w types.Hash
	binary.BigEndian.PutUint64(w[24:], n)
	return w
}

// Load reads one of the contract's storage words, charging SLOAD gas to the
// application category.
func (c *Call) Load(slot types.Hash) (types.Hash, error) {
	return c.LoadAs(gas.CatApp, slot)
}

// LoadAs is Load with an explicit gas category.
func (c *Call) LoadAs(cat gas.Category, slot types.Hash) (types.Hash, error) {
	if err := c.meter.Charge(cat, gas.SLoad); err != nil {
		return types.Hash{}, err
	}
	word := c.view.GetState(c.self, slot)
	c.trace.add(TraceEvent{Kind: TraceSLoad, Depth: c.depth, From: c.self, To: c.self, Slot: slot, Word: word})
	return word, nil
}

// Store writes one of the contract's storage words, charging SSTORE gas
// (20000 for zero→nonzero, 5000 otherwise) to the application category.
func (c *Call) Store(slot, word types.Hash) error {
	return c.StoreAs(gas.CatApp, slot, word)
}

// StoreAs is Store with an explicit gas category.
func (c *Call) StoreAs(cat gas.Category, slot, word types.Hash) error {
	prev := c.view.GetState(c.self, slot)
	cost := gas.SStoreReset
	if prev.IsZero() && !word.IsZero() {
		cost = gas.SStoreSet
	}
	if err := c.meter.Charge(cat, cost); err != nil {
		return err
	}
	c.view.SetState(c.self, slot, word)
	c.trace.add(TraceEvent{Kind: TraceSStore, Depth: c.depth, From: c.self, To: c.self, Slot: slot, Word: word})
	return nil
}

// LoadUint / StoreUint are word helpers for counters and pointers. A
// word wider than 64 bits loads as its low 64 bits.
func (c *Call) LoadUint(cat gas.Category, slot types.Hash) (uint64, error) {
	w, err := c.LoadAs(cat, slot)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(w[24:]), nil
}

// StoreUint writes a uint64 into a storage word.
func (c *Call) StoreUint(cat gas.Category, slot types.Hash, v uint64) error {
	return c.StoreAs(cat, slot, SlotN(v))
}

// BalanceOf reads an account balance (charged like the BALANCE opcode).
func (c *Call) BalanceOf(addr types.Address) (*big.Int, error) {
	if err := c.meter.Charge(gas.CatApp, 700); err != nil {
		return nil, err
	}
	return c.view.Balance(addr), nil
}

// CallContract performs a message call from this frame to another contract
// method, passing value, arguments, and the token array through. On handler
// error all state changes of the inner frame are reverted and the error is
// returned.
func (c *Call) CallContract(to types.Address, method string, value *big.Int, args []any, tokens [][]byte) ([]any, error) {
	if c.depth+1 > MaxCallDepth {
		return nil, ErrMaxCallDepth
	}
	if err := c.meter.Charge(gas.CatApp, gas.Call); err != nil {
		return nil, err
	}
	appData, err := abi.Pack(method, args...)
	if err != nil {
		return nil, err
	}
	return c.chain.execute(execParams{
		view:      c.view,
		origin:    c.origin,
		caller:    c.self,
		to:        to,
		value:     value,
		appData:   appData,
		tokens:    tokens,
		meter:     c.meter,
		depth:     c.depth + 1,
		blockTime: c.blockTime,
		trace:     c.trace,
	})
}

// Transfer sends value from the contract to an account. If the recipient is
// a contract, its fallback method runs — this models Solidity's
// `addr.call.value(amount)()` and is the re-entrancy vector of Fig. 7.
func (c *Call) Transfer(to types.Address, amount *big.Int) error {
	if c.depth+1 > MaxCallDepth {
		return ErrMaxCallDepth
	}
	cost := gas.Call
	if amount != nil && amount.Sign() > 0 {
		cost += gas.CallValue
		if !c.view.Exists(to) {
			cost += gas.NewAccount
		}
	}
	if err := c.meter.Charge(gas.CatApp, cost); err != nil {
		return err
	}
	c.trace.add(TraceEvent{Kind: TraceTransfer, Depth: c.depth, From: c.self, To: to, Amount: cpBig(amount)})
	if err := c.view.SubBalance(c.self, amount); err != nil {
		return err
	}
	c.view.AddBalance(to, amount)

	target, ok := c.chain.contracts[to]
	if !ok || target.fallback == nil {
		return nil
	}
	// Run the fallback in a fresh frame; its failure reverts the transfer.
	inner := &Call{
		chain:     c.chain,
		view:      c.view,
		origin:    c.origin,
		caller:    c.self,
		self:      to,
		value:     cpBig(amount),
		contract:  target,
		method:    &Method{Name: "", signature: "()"},
		tokens:    c.tokens,
		meter:     c.meter,
		depth:     c.depth + 1,
		blockTime: c.blockTime,
		trace:     c.trace,
	}
	c.trace.add(TraceEvent{Kind: TraceCall, Depth: inner.depth, From: c.self, To: to, Method: "(fallback)", Amount: cpBig(amount)})
	_, err := target.fallback(inner)
	c.trace.add(TraceEvent{Kind: TraceReturn, Depth: inner.depth, From: to, To: c.self, Method: "(fallback)", Err: errString(err)})
	if err != nil {
		return fmt.Errorf("fallback of %s: %w", to, err)
	}
	return nil
}

// Invoke calls another method of the same contract internally (no message
// call, no Call-opcode gas). Internal and private methods are reachable this
// way, matching Solidity's internal call semantics.
func (c *Call) Invoke(method string, args ...any) ([]any, error) {
	m, ok := c.contract.byName[method]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrUnknownMethod, c.contract.name, method)
	}
	appData, err := abi.Pack(method, args...)
	if err != nil {
		return nil, err
	}
	inner := &Call{
		chain:     c.chain,
		view:      c.view,
		origin:    c.origin,
		caller:    c.caller, // internal calls preserve msg.sender
		self:      c.self,
		value:     new(big.Int),
		contract:  c.contract,
		method:    m,
		args:      args,
		tokens:    c.tokens,
		appData:   appData,
		meter:     c.meter,
		depth:     c.depth,
		blockTime: c.blockTime,
		trace:     c.trace,
	}
	return m.Handler(inner)
}

func cpBig(v *big.Int) *big.Int {
	if v == nil {
		return new(big.Int)
	}
	return new(big.Int).Set(v)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
