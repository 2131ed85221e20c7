// Per-transaction views for optimistic-parallel execution.
//
// A View gives one transaction execution an isolated, journaled window
// onto a committed *DB: the first access to a location loads it from the
// DB, and every later read and write goes to the view's own copy. The
// locations a view loaded are its read-set. The locations whose final
// value differs from the loaded one are its write-set (Writes), which
// DB.ApplyWrites installs once the transaction's position is final.
// Whether an execution saw the values serial execution would have is a
// set intersection: it did unless it loaded a location that a lower
// transaction of the batch wrote (View.Meets).
//
// Locations are tracked at two granularities, matching the DB:
//   - one record per account (existence, balance, nonce, contract flag) —
//     balance and nonce conflicts on the same account are real conflicts
//     in this model because fees always rewrite the sender account;
//   - one record per (contract, slot) storage word.
package state

import (
	"fmt"
	"math/big"

	"repro/internal/types"
)

// SlotKey addresses one storage word.
type SlotKey struct {
	Addr types.Address
	Slot types.Hash
}

// acctData is an immutable snapshot of one account record. A nil balance
// is treated as zero.
type acctData struct {
	exists   bool
	contract bool
	nonce    uint64
	balance  *big.Int
}

func (a acctData) balanceOrZero() *big.Int {
	if a.balance == nil {
		return new(big.Int)
	}
	return a.balance
}

// WriteSet holds the net effect of one transaction execution: final
// account records and storage words for every location the transaction
// changed. Values are owned by the set and never mutated after creation.
type WriteSet struct {
	accts map[types.Address]acctData
	slots map[SlotKey]types.Hash
}

// Written is the set of locations a prefix of a batch has written: the
// union of the write-sets applied so far, without their values.
type Written struct {
	accts map[types.Address]struct{}
	slots map[SlotKey]struct{}
}

// NewWritten returns an empty set.
func NewWritten() *Written {
	return &Written{
		accts: make(map[types.Address]struct{}),
		slots: make(map[SlotKey]struct{}),
	}
}

// Add records every location ws writes.
func (w *Written) Add(ws *WriteSet) {
	for addr := range ws.accts {
		w.accts[addr] = struct{}{}
	}
	for k := range ws.slots {
		w.slots[k] = struct{}{}
	}
}

// viewAcct is a view-local working copy of one account plus the values it
// had when first loaded (used to compute the net write-set).
type viewAcct struct {
	exists, contract         bool
	nonce                    uint64
	balance                  *big.Int // owned by the view
	origExists, origContract bool
	origNonce                uint64
	origBalance              *big.Int
}

type viewSlot struct {
	cur, orig types.Hash
}

// View gives one transaction execution an isolated, journaled window onto
// a committed *DB. It implements the same mutation surface as *DB (the
// subset transaction execution uses) so the EVM layer can run unchanged
// against either. Its accts and slots maps hold every location it loaded:
// they are its read-set. A View is not safe for concurrent use; each
// scheduler worker owns the views it creates.
type View struct {
	base    *DB
	accts   map[types.Address]*viewAcct
	slots   map[SlotKey]*viewSlot
	journal []func()
}

// NewView creates a fresh view over base. Each execution must use a new
// view.
func NewView(base *DB) *View {
	return &View{
		base:  base,
		accts: make(map[types.Address]*viewAcct, 8),
		slots: make(map[SlotKey]*viewSlot, 8),
	}
}

func (v *View) acct(addr types.Address) *viewAcct {
	if va, ok := v.accts[addr]; ok {
		return va
	}
	data := v.base.peek(addr)
	bal := new(big.Int).Set(data.balanceOrZero())
	va := &viewAcct{
		exists: data.exists, contract: data.contract, nonce: data.nonce,
		balance:    bal,
		origExists: data.exists, origContract: data.contract, origNonce: data.nonce,
		origBalance: new(big.Int).Set(bal),
	}
	v.accts[addr] = va
	return va
}

// Exists reports whether the address has ever been touched.
func (v *View) Exists(addr types.Address) bool { return v.acct(addr).exists }

// Balance returns a copy of the account balance (zero for fresh accounts).
func (v *View) Balance(addr types.Address) *big.Int {
	return new(big.Int).Set(v.acct(addr).balance)
}

// touch marks the account as existing, mirroring DB.account's
// create-on-access journal entry.
func (v *View) touch(va *viewAcct) {
	if va.exists {
		return
	}
	va.exists = true
	v.journal = append(v.journal, func() { va.exists = false })
}

// AddBalance credits amount to addr.
func (v *View) AddBalance(addr types.Address, amount *big.Int) {
	va := v.acct(addr)
	v.touch(va)
	if amount == nil || amount.Sign() == 0 {
		return
	}
	prev := new(big.Int).Set(va.balance)
	va.balance.Add(va.balance, amount)
	v.journal = append(v.journal, func() { va.balance.Set(prev) })
}

// SubBalance debits amount from addr, failing if the balance is
// insufficient.
func (v *View) SubBalance(addr types.Address, amount *big.Int) error {
	if amount == nil || amount.Sign() == 0 {
		return nil
	}
	va := v.acct(addr)
	if va.balance.Cmp(amount) < 0 {
		return fmt.Errorf("%w: %s has %s, needs %s", ErrInsufficientBalance, addr, va.balance, amount)
	}
	v.touch(va)
	prev := new(big.Int).Set(va.balance)
	va.balance.Sub(va.balance, amount)
	v.journal = append(v.journal, func() { va.balance.Set(prev) })
	return nil
}

// Nonce returns the account nonce.
func (v *View) Nonce(addr types.Address) uint64 { return v.acct(addr).nonce }

// IncNonce increments the account nonce.
func (v *View) IncNonce(addr types.Address) {
	va := v.acct(addr)
	v.touch(va)
	prev := va.nonce
	va.nonce++
	v.journal = append(v.journal, func() { va.nonce = prev })
}

// IsContract reports whether addr is a contract account.
func (v *View) IsContract(addr types.Address) bool { return v.acct(addr).contract }

func (v *View) slot(k SlotKey) *viewSlot {
	if vs, ok := v.slots[k]; ok {
		return vs
	}
	val := v.base.GetState(k.Addr, k.Slot)
	vs := &viewSlot{cur: val, orig: val}
	v.slots[k] = vs
	return vs
}

// GetState reads a storage word of a contract.
func (v *View) GetState(addr types.Address, slot types.Hash) types.Hash {
	return v.slot(SlotKey{Addr: addr, Slot: slot}).cur
}

// SetState writes a storage word and returns the previous value.
func (v *View) SetState(addr types.Address, slot types.Hash, value types.Hash) types.Hash {
	vs := v.slot(SlotKey{Addr: addr, Slot: slot})
	prev := vs.cur
	vs.cur = value
	v.journal = append(v.journal, func() { vs.cur = prev })
	return prev
}

// Snapshot returns an identifier that can later be passed to
// RevertToSnapshot to roll back every mutation made since.
func (v *View) Snapshot() int { return len(v.journal) }

// RevertToSnapshot undoes all mutations recorded after the snapshot was
// taken. Loaded locations stay in the read-set: even reverted reads were
// observed and could have changed the execution path, so they still gate
// validity.
func (v *View) RevertToSnapshot(id int) {
	if id < 0 || id > len(v.journal) {
		return
	}
	for i := len(v.journal) - 1; i >= id; i-- {
		v.journal[i]()
	}
	v.journal = v.journal[:id]
}

// Meets reports whether v loaded any location in w. An execution that
// loaded none of them read the values it would have read after w's
// writes, so it is the execution serial order gives.
func (v *View) Meets(w *Written) bool {
	for addr := range v.accts {
		if _, ok := w.accts[addr]; ok {
			return true
		}
	}
	for k := range v.slots {
		if _, ok := w.slots[k]; ok {
			return true
		}
	}
	return false
}

// Writes extracts the net write-set: every location whose final value
// differs from the value first loaded. Writes that were reverted (or
// overwritten back to the original value) produce no entry, matching the
// net effect a serial execution would have had on the DB.
func (v *View) Writes() *WriteSet {
	ws := &WriteSet{
		accts: make(map[types.Address]acctData, len(v.accts)),
		slots: make(map[SlotKey]types.Hash, len(v.slots)),
	}
	for addr, va := range v.accts {
		if va.exists == va.origExists && va.contract == va.origContract &&
			va.nonce == va.origNonce && va.balance.Cmp(va.origBalance) == 0 {
			continue
		}
		ws.accts[addr] = acctData{
			exists: va.exists, contract: va.contract, nonce: va.nonce,
			balance: new(big.Int).Set(va.balance),
		}
	}
	for k, vs := range v.slots {
		if vs.cur != vs.orig {
			ws.slots[k] = vs.cur
		}
	}
	return ws
}
