// Package state implements the world state of the simulated chain:
// accounts (balance, nonce, contract flag) and per-contract word storage.
//
// There is one way to mutate it. Every execution runs on a View
// (view.go), an isolated, journaled window onto the committed DB, where
// nested Snapshot/RevertToSnapshot roll failed calls back exactly as in
// the EVM. The DB itself changes only through ApplyWrites, which installs
// a view's net write-set, and RevertToSnapshot. The DB's journal exists
// for block-level undo: the chain rewinds it on a reorg, and when a batch
// panics, back to where the batch started.
//
// Both journals are typed: a slice of plain entries, each naming the
// location it restores and the value before the write, which
// RevertToSnapshot replays newest first. An entry restores either a
// whole account record (an absent account included) or a storage word,
// with no closure and no separately allocated value behind it. Balances
// are 256-bit Wei values; *big.Int appears only in the exported methods
// that take or return one, and only a returned one is allocated. A
// negative amount, and a credit that is wider than 256 bits or would
// take a balance past 2²⁵⁶−1, is a caller bug and panics: no transaction
// can mint wei, so only a faucet credit can reach that bound. A debit
// wider than 256 bits is an insufficient balance.
//
// The DB is not safe for concurrent use; the chain serializes access. The
// one exception is read-only use: while the chain holds its mutex and
// nothing writes to the DB, many Views may load from it at once (the
// optimistic scheduler's speculative wave).
package state

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/keccak"
	"repro/internal/types"
)

// ErrInsufficientBalance is returned when a debit exceeds the account
// balance.
var ErrInsufficientBalance = errors.New("state: insufficient balance")

// insufficient builds a failed debit's error. Only the error path formats
// the amounts, so a debit that succeeds allocates nothing.
func insufficient(addr types.Address, has Wei, needs fmt.Stringer) error {
	return fmt.Errorf("%w: %s has %s, needs %s", ErrInsufficientBalance, addr, has, needs)
}

// creditOf converts a credit amount, panicking on one no balance can hold.
func creditOf(addr types.Address, amount *big.Int) Wei {
	w, ok := WeiOf(amount)
	if !ok {
		panic(fmt.Sprintf("state: credit of %s to %s is not a 256-bit amount", amount, addr))
	}
	return w
}

// credited returns balance + amount, panicking past 2²⁵⁶−1.
func credited(addr types.Address, balance, amount Wei) Wei {
	sum, ok := balance.Add(amount)
	if !ok {
		panic(fmt.Sprintf("state: balance of %s overflows 256 bits", addr))
	}
	return sum
}

// debitOf converts a debit amount; wide reports one beyond 256 bits,
// which exceeds every balance.
func debitOf(addr types.Address, amount *big.Int) (w Wei, wide bool) {
	w, ok := WeiOf(amount)
	if !ok && amount.Sign() < 0 {
		panic(fmt.Sprintf("state: debit of %s from %s is negative", amount, addr))
	}
	return w, !ok
}

// acctVal is the value of one account record. The DB holds one per
// existing account; a view's records hold one per account they loaded,
// exists false for an absent one.
type acctVal struct {
	balance  Wei
	nonce    uint64
	exists   bool
	contract bool
}

// change is one undo-journal entry: what a write replaced, either a
// whole account record (its balance kept as a word, exists false for an
// absent account) or a storage word (zero for an absent slot). A view's
// journal names the record by index; the DB's (dbChange) by location.
type change struct {
	word             types.Hash // the balance, or the storage word
	nonce            uint64
	idx              int32 // the view record it restores
	isSlot           bool
	exists, contract bool
}

func acctChange(idx int32, a acctVal) change {
	return change{word: a.balance.word(), nonce: a.nonce, idx: idx, exists: a.exists, contract: a.contract}
}

func slotChange(idx int32, w types.Hash) change { return change{word: w, idx: idx, isSlot: true} }

// acct is the account record an account entry restores.
func (c *change) acct() acctVal {
	return acctVal{balance: weiOfWord(c.word), nonce: c.nonce, exists: c.exists, contract: c.contract}
}

// dbChange is one entry of the DB's undo journal: a location ApplyWrites
// wrote and what it held before.
type dbChange struct {
	change
	addr types.Address
	slot types.Hash // storage entries
}

// DB is the committed world state. Its reads serve views and the
// chain's accessors; its only writes are ApplyWrites and
// RevertToSnapshot.
type DB struct {
	accounts map[types.Address]acctVal // every record has exists set
	storage  map[types.Address]map[types.Hash]types.Hash
	journal  []dbChange
}

// New creates an empty world state.
func New() *DB {
	return &DB{
		accounts: make(map[types.Address]acctVal),
		storage:  make(map[types.Address]map[types.Hash]types.Hash),
	}
}

// Exists reports whether the address has ever been touched.
func (db *DB) Exists(addr types.Address) bool { return db.accounts[addr].exists }

// BalanceWei returns the account balance (zero for fresh accounts).
func (db *DB) BalanceWei(addr types.Address) Wei { return db.accounts[addr].balance }

// Balance returns a copy of the account balance (zero for fresh accounts).
func (db *DB) Balance(addr types.Address) *big.Int { return db.BalanceWei(addr).Big() }

// Nonce returns the account nonce.
func (db *DB) Nonce(addr types.Address) uint64 { return db.accounts[addr].nonce }

// IsContract reports whether addr is a contract account.
func (db *DB) IsContract(addr types.Address) bool { return db.accounts[addr].contract }

// GetState reads a storage word of a contract.
func (db *DB) GetState(addr types.Address, slot types.Hash) types.Hash {
	return db.storage[addr][slot]
}

// putWord stores value at (addr, slot). As in Ethereum, a zero word is an
// absent slot: storing zero deletes the key, and a contract whose last
// word is deleted holds no storage, so the stored keys depend on the
// values alone and not on the history that reached them.
func (db *DB) putWord(addr types.Address, slot types.Hash, value types.Hash) {
	s, ok := db.storage[addr]
	if value == (types.Hash{}) {
		delete(s, slot)
		if ok && len(s) == 0 {
			delete(db.storage, addr)
		}
		return
	}
	if !ok {
		s = make(map[types.Hash]types.Hash)
		db.storage[addr] = s
	}
	s[slot] = value
}

// putAcct installs an account record, deleting an absent one.
func (db *DB) putAcct(addr types.Address, a acctVal) {
	if a.exists {
		db.accounts[addr] = a
	} else {
		delete(db.accounts, addr)
	}
}

// StorageWords returns the number of distinct storage words a contract
// occupies (used to size the one-time-token bitmap cost in Table IV).
func (db *DB) StorageWords(addr types.Address) int {
	return len(db.storage[addr])
}

// Snapshot returns an identifier that can later be passed to
// RevertToSnapshot to roll back every write-set applied since.
func (db *DB) Snapshot() int { return len(db.journal) }

// RevertToSnapshot undoes every write-set applied after the snapshot was
// taken. Reverting to a stale (already reverted) snapshot is a no-op.
func (db *DB) RevertToSnapshot(id int) {
	if id < 0 || id > len(db.journal) {
		return
	}
	for i := len(db.journal) - 1; i >= id; i-- {
		c := &db.journal[i]
		if c.isSlot {
			db.putWord(c.addr, c.slot, c.word)
		} else {
			db.putAcct(c.addr, c.acct())
		}
	}
	db.journal = db.journal[:id]
}

// ApplyWrites installs the net write-set of an execution on a view of
// db: the only way execution results reach the committed state. It
// journals each location's previous value, so a snapshot taken before
// the call rolls the write-set back.
func (db *DB) ApplyWrites(ws WriteSet) {
	for i := range ws.v.accts {
		r := &ws.v.accts[i]
		if !r.written() {
			continue
		}
		db.journal = append(db.journal, dbChange{change: acctChange(0, db.accounts[r.addr]), addr: r.addr})
		db.putAcct(r.addr, r.cur)
	}
	for i := range ws.v.slots {
		r := &ws.v.slots[i]
		if !r.written() {
			continue
		}
		prev := db.GetState(r.key.Addr, r.key.Slot)
		if prev == r.cur {
			continue
		}
		db.journal = append(db.journal, dbChange{change: slotChange(0, prev), addr: r.key.Addr, slot: r.key.Slot})
		db.putWord(r.key.Addr, r.key.Slot, r.cur)
	}
}

// Digest returns a deterministic hash of the full world state: equal
// states produce equal digests regardless of how they were reached.
func (db *DB) Digest() (types.Hash, error) {
	enc, err := db.EncodeSnapshot()
	if err != nil {
		return types.Hash{}, err
	}
	return types.Hash(keccak.Sum256(enc)), nil
}
