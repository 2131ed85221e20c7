// Per-transaction views for optimistic-parallel execution.
//
// A View gives one transaction execution an isolated, journaled window
// onto a committed *DB: the first access to a location loads it from the
// DB into a record, and every later read and write goes to that record.
// The locations a view loaded are its read-set. The records whose final
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
//
// A record is a value holding the location, its current value and the
// value it was loaded with; the records live in two slices, in load
// order, whose first few elements are arrays inside the View, as is the
// start of its journal. So a transaction that touches a handful of
// locations costs one allocation, the View itself, and a mutation
// appends a typed undo entry that names the record by index.
package state

import (
	"math/big"

	"repro/internal/types"
)

// SlotKey addresses one storage word.
type SlotKey struct {
	Addr types.Address
	Slot types.Hash
}

// acctVal is the value of one account record.
type acctVal struct {
	balance  Wei
	nonce    uint64
	exists   bool
	contract bool
}

// acctRec is a view's record of one account: its current value and the
// value it was loaded with.
type acctRec struct {
	addr      types.Address
	cur, orig acctVal
}

func (r *acctRec) written() bool { return r.cur != r.orig }

// slotRec is a view's record of one storage word.
type slotRec struct {
	key       SlotKey
	cur, orig types.Hash
}

func (r *slotRec) written() bool { return r.cur != r.orig }

// viewChange is one entry of a view's undo journal: the kind of mutation,
// the index of the record it hit, and the value before it.
type viewChange struct {
	kind  changeKind
	idx   int32
	nonce uint64 // chNonce
	// prev is the previous balance as a word (chBalance), or the
	// previous storage word (chSlot).
	prev types.Hash
}

// Records and journal entries a View holds before its slices first
// grow; a view past indexAbove records of a kind looks them up through
// a map instead of a scan.
const (
	inlineAccts   = 4
	inlineSlots   = 8
	inlineJournal = 16
	indexAbove    = 32
)

// View gives one transaction execution an isolated, journaled window onto
// a committed *DB. It implements the same mutation surface as *DB (the
// subset transaction execution uses) so the EVM layer can run unchanged
// against either. Its records are every location it loaded: they are its
// read-set. A View is not safe for concurrent use; each scheduler worker
// owns the views it creates.
type View struct {
	base    *DB
	accts   []acctRec
	slots   []slotRec
	journal []viewChange

	// Built only once a view holds more than indexAbove records of a
	// kind, so that a transaction touching thousands of locations does
	// not scan for each one.
	acctIdx map[types.Address]int32
	slotIdx map[SlotKey]int32

	acctBuf    [inlineAccts]acctRec
	slotBuf    [inlineSlots]slotRec
	journalBuf [inlineJournal]viewChange
}

// NewView creates a fresh view over base. Each execution must use a new
// view.
func NewView(base *DB) *View {
	v := &View{base: base}
	v.accts = v.acctBuf[:0]
	v.slots = v.slotBuf[:0]
	v.journal = v.journalBuf[:0]
	return v
}

// acct returns the index of addr's record, loading it on first access.
func (v *View) acct(addr types.Address) int32 {
	if v.acctIdx != nil {
		if i, ok := v.acctIdx[addr]; ok {
			return i
		}
	} else {
		for i := range v.accts {
			if v.accts[i].addr == addr {
				return int32(i)
			}
		}
	}
	val := v.base.peek(addr)
	i := int32(len(v.accts))
	v.accts = append(v.accts, acctRec{addr: addr, cur: val, orig: val})
	switch {
	case v.acctIdx != nil:
		v.acctIdx[addr] = i
	case len(v.accts) > indexAbove:
		v.acctIdx = make(map[types.Address]int32, 2*len(v.accts))
		for k := range v.accts {
			v.acctIdx[v.accts[k].addr] = int32(k)
		}
	}
	return i
}

// slot returns the index of k's record, loading it on first access.
func (v *View) slot(k SlotKey) int32 {
	if v.slotIdx != nil {
		if i, ok := v.slotIdx[k]; ok {
			return i
		}
	} else {
		for i := range v.slots {
			if v.slots[i].key == k {
				return int32(i)
			}
		}
	}
	val := v.base.GetState(k.Addr, k.Slot)
	i := int32(len(v.slots))
	v.slots = append(v.slots, slotRec{key: k, cur: val, orig: val})
	switch {
	case v.slotIdx != nil:
		v.slotIdx[k] = i
	case len(v.slots) > indexAbove:
		v.slotIdx = make(map[SlotKey]int32, 2*len(v.slots))
		for n := range v.slots {
			v.slotIdx[v.slots[n].key] = int32(n)
		}
	}
	return i
}

// Exists reports whether the address has ever been touched.
func (v *View) Exists(addr types.Address) bool { return v.accts[v.acct(addr)].cur.exists }

// BalanceWei returns the account balance (zero for fresh accounts).
func (v *View) BalanceWei(addr types.Address) Wei { return v.accts[v.acct(addr)].cur.balance }

// Balance returns a copy of the account balance (zero for fresh accounts).
func (v *View) Balance(addr types.Address) *big.Int { return v.BalanceWei(addr).Big() }

// touch marks record i as existing, mirroring DB.account's
// create-on-access journal entry.
func (v *View) touch(i int32) {
	if v.accts[i].cur.exists {
		return
	}
	v.journal = append(v.journal, viewChange{kind: chCreate, idx: i})
	v.accts[i].cur.exists = true
}

// AddWei credits amount to addr, touching the account even when amount is
// zero.
func (v *View) AddWei(addr types.Address, amount Wei) {
	i := v.acct(addr)
	v.touch(i)
	if amount.IsZero() {
		return
	}
	r := &v.accts[i]
	sum := credited(addr, r.cur.balance, amount)
	v.journal = append(v.journal, viewChange{kind: chBalance, idx: i, prev: r.cur.balance.word()})
	r.cur.balance = sum
}

// AddBalance credits amount to addr.
func (v *View) AddBalance(addr types.Address, amount *big.Int) {
	v.AddWei(addr, creditOf(addr, amount))
}

// SubWei debits amount from addr, failing if the balance is insufficient.
// A failed or zero debit touches nothing.
func (v *View) SubWei(addr types.Address, amount Wei) error {
	if amount.IsZero() {
		return nil
	}
	i := v.acct(addr)
	bal := v.accts[i].cur.balance
	if bal.Cmp(amount) < 0 {
		return insufficient(addr, bal, amount)
	}
	v.touch(i)
	v.journal = append(v.journal, viewChange{kind: chBalance, idx: i, prev: bal.word()})
	v.accts[i].cur.balance = bal.Sub(amount)
	return nil
}

// SubBalance debits amount from addr, failing if the balance is
// insufficient.
func (v *View) SubBalance(addr types.Address, amount *big.Int) error {
	w, wide := debitOf(addr, amount)
	if wide {
		return insufficient(addr, v.BalanceWei(addr), amount)
	}
	return v.SubWei(addr, w)
}

// Nonce returns the account nonce.
func (v *View) Nonce(addr types.Address) uint64 { return v.accts[v.acct(addr)].cur.nonce }

// IncNonce increments the account nonce.
func (v *View) IncNonce(addr types.Address) {
	i := v.acct(addr)
	v.touch(i)
	r := &v.accts[i]
	v.journal = append(v.journal, viewChange{kind: chNonce, idx: i, nonce: r.cur.nonce})
	r.cur.nonce++
}

// IsContract reports whether addr is a contract account.
func (v *View) IsContract(addr types.Address) bool { return v.accts[v.acct(addr)].cur.contract }

// GetState reads a storage word of a contract.
func (v *View) GetState(addr types.Address, slot types.Hash) types.Hash {
	return v.slots[v.slot(SlotKey{Addr: addr, Slot: slot})].cur
}

// SetState writes a storage word and returns the previous value.
func (v *View) SetState(addr types.Address, slot types.Hash, value types.Hash) types.Hash {
	i := v.slot(SlotKey{Addr: addr, Slot: slot})
	r := &v.slots[i]
	prev := r.cur
	v.journal = append(v.journal, viewChange{kind: chSlot, idx: i, prev: prev})
	r.cur = value
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
		c := &v.journal[i]
		switch c.kind {
		case chCreate:
			v.accts[c.idx].cur.exists = false
		case chBalance:
			v.accts[c.idx].cur.balance = weiOfWord(c.prev)
		case chNonce:
			v.accts[c.idx].cur.nonce = c.nonce
		case chSlot:
			v.slots[c.idx].cur = c.prev
		}
	}
	v.journal = v.journal[:id]
}

// WriteSet is the net effect of one transaction execution: the records of
// its view whose final value differs from the value first loaded. Writes
// that were reverted, or overwritten back to the original value, are not
// in it, matching the net effect a serial execution would have had on the
// DB. It reads the view's records, so it holds until the view is next
// mutated.
type WriteSet struct{ v *View }

// Writes returns the view's net write-set.
func (v *View) Writes() WriteSet { return WriteSet{v} }

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
func (w *Written) Add(ws WriteSet) {
	for i := range ws.v.accts {
		if r := &ws.v.accts[i]; r.written() {
			w.accts[r.addr] = struct{}{}
		}
	}
	for i := range ws.v.slots {
		if r := &ws.v.slots[i]; r.written() {
			w.slots[r.key] = struct{}{}
		}
	}
}

// Meets reports whether v loaded any location in w. An execution that
// loaded none of them read the values it would have read after w's
// writes, so it is the execution serial order gives.
func (v *View) Meets(w *Written) bool {
	for i := range v.accts {
		if _, ok := w.accts[v.accts[i].addr]; ok {
			return true
		}
	}
	for i := range v.slots {
		if _, ok := w.slots[v.slots[i].key]; ok {
			return true
		}
	}
	return false
}
