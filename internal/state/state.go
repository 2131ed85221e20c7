// Package state implements the world state of the simulated chain:
// accounts (balance, nonce, contract flag) and per-contract word storage,
// with journaled snapshot/revert so failed calls roll back exactly as in
// the EVM.
//
// Both the DB and the per-transaction View (view.go) undo through a typed
// journal: a slice of plain entries, each naming the kind of mutation,
// the location it hit and the value before it, which RevertToSnapshot
// replays newest first. A mutation appends one entry, with no closure
// and no separately allocated value behind it. Balances are 256-bit Wei values;
// *big.Int appears only in the exported methods that take or return one,
// and only a returned one is allocated. A negative amount, and a credit
// that is wider than 256 bits or would take a balance past 2²⁵⁶−1, is a
// caller bug and panics: no transaction can mint wei, so only a faucet
// credit can reach that bound. A debit wider than 256 bits is an
// insufficient balance.
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

type account struct {
	balance  Wei
	nonce    uint64
	contract bool
}

// changeKind names the mutation a journal entry undoes.
type changeKind uint8

const (
	chCreate   changeKind = iota + 1 // an account came into existence
	chBalance                        // a balance changed
	chNonce                          // a nonce changed
	chContract                       // an account was flagged as a contract
	chAccount                        // ApplyWrites replaced a whole account record
	chSlot                           // a storage word changed
)

// dbChange is one entry of the DB's undo journal: the kind of mutation,
// the location it hit, and the value before it.
type dbChange struct {
	kind     changeKind
	contract bool // the previous contract flag (chContract, chAccount)
	addr     types.Address
	slot     types.Hash // chSlot
	nonce    uint64     // chNonce, chAccount
	// prev is the previous balance as a word (chBalance, chAccount), or
	// the previous storage word, zero for an absent slot (chSlot).
	prev types.Hash
}

// DB is the mutable world state.
type DB struct {
	accounts map[types.Address]*account
	storage  map[types.Address]map[types.Hash]types.Hash
	journal  []dbChange
}

// New creates an empty world state.
func New() *DB {
	return &DB{
		accounts: make(map[types.Address]*account),
		storage:  make(map[types.Address]map[types.Hash]types.Hash),
	}
}

func (db *DB) account(addr types.Address) *account {
	if acc, ok := db.accounts[addr]; ok {
		return acc
	}
	acc := &account{}
	db.accounts[addr] = acc
	db.journal = append(db.journal, dbChange{kind: chCreate, addr: addr})
	return acc
}

// peek returns the record of addr without creating it. It only reads, so
// views may call it concurrently while nothing writes to the DB.
func (db *DB) peek(addr types.Address) acctVal {
	acc, ok := db.accounts[addr]
	if !ok {
		return acctVal{}
	}
	return acctVal{exists: true, contract: acc.contract, nonce: acc.nonce, balance: acc.balance}
}

// Exists reports whether the address has ever been touched.
func (db *DB) Exists(addr types.Address) bool {
	_, ok := db.accounts[addr]
	return ok
}

// BalanceWei returns the account balance (zero for fresh accounts).
func (db *DB) BalanceWei(addr types.Address) Wei {
	if acc, ok := db.accounts[addr]; ok {
		return acc.balance
	}
	return Wei{}
}

// Balance returns a copy of the account balance (zero for fresh accounts).
func (db *DB) Balance(addr types.Address) *big.Int { return db.BalanceWei(addr).Big() }

// AddWei credits amount to addr, touching the account even when amount is
// zero.
func (db *DB) AddWei(addr types.Address, amount Wei) {
	acc := db.account(addr)
	if amount.IsZero() {
		return
	}
	sum := credited(addr, acc.balance, amount)
	db.journal = append(db.journal, dbChange{kind: chBalance, addr: addr, prev: acc.balance.word()})
	acc.balance = sum
}

// AddBalance credits amount to addr.
func (db *DB) AddBalance(addr types.Address, amount *big.Int) {
	db.AddWei(addr, creditOf(addr, amount))
}

// SubWei debits amount from addr, failing if the balance is insufficient.
// A failed or zero debit touches nothing.
func (db *DB) SubWei(addr types.Address, amount Wei) error {
	if amount.IsZero() {
		return nil
	}
	bal := db.BalanceWei(addr)
	if bal.Cmp(amount) < 0 {
		return insufficient(addr, bal, amount)
	}
	acc := db.accounts[addr] // exists: its balance covers a nonzero amount
	db.journal = append(db.journal, dbChange{kind: chBalance, addr: addr, prev: bal.word()})
	acc.balance = bal.Sub(amount)
	return nil
}

// SubBalance debits amount from addr, failing if the balance is
// insufficient.
func (db *DB) SubBalance(addr types.Address, amount *big.Int) error {
	w, wide := debitOf(addr, amount)
	if wide {
		return insufficient(addr, db.BalanceWei(addr), amount)
	}
	return db.SubWei(addr, w)
}

// Nonce returns the account nonce.
func (db *DB) Nonce(addr types.Address) uint64 {
	if acc, ok := db.accounts[addr]; ok {
		return acc.nonce
	}
	return 0
}

// IncNonce increments the account nonce (after a transaction is accepted).
func (db *DB) IncNonce(addr types.Address) {
	acc := db.account(addr)
	db.journal = append(db.journal, dbChange{kind: chNonce, addr: addr, nonce: acc.nonce})
	acc.nonce++
}

// MarkContract flags addr as a contract account.
func (db *DB) MarkContract(addr types.Address) {
	acc := db.account(addr)
	db.journal = append(db.journal, dbChange{kind: chContract, addr: addr, contract: acc.contract})
	acc.contract = true
}

// IsContract reports whether addr is a contract account.
func (db *DB) IsContract(addr types.Address) bool {
	acc, ok := db.accounts[addr]
	return ok && acc.contract
}

// GetState reads a storage word of a contract.
func (db *DB) GetState(addr types.Address, slot types.Hash) types.Hash {
	if s, ok := db.storage[addr]; ok {
		return s[slot]
	}
	return types.Hash{}
}

// SetState writes a storage word and returns the previous value (used for
// SSTORE gas pricing). As in Ethereum, a zero word is an absent slot:
// storing zero deletes the key, and a contract whose last word is
// deleted holds no storage, so the stored keys depend on the values
// alone and not on the history that reached them.
func (db *DB) SetState(addr types.Address, slot types.Hash, value types.Hash) types.Hash {
	prev := db.storage[addr][slot]
	if value == (types.Hash{}) && prev == (types.Hash{}) {
		return prev
	}
	db.journal = append(db.journal, dbChange{kind: chSlot, addr: addr, slot: slot, prev: prev})
	db.putWord(addr, slot, value)
	return prev
}

// putWord stores value at (addr, slot), deleting the key for a zero word
// and the contract's storage with its last key.
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

// StorageWords returns the number of distinct storage words a contract
// occupies (used to size the one-time-token bitmap cost in Table IV).
func (db *DB) StorageWords(addr types.Address) int {
	return len(db.storage[addr])
}

// Snapshot returns an identifier that can later be passed to
// RevertToSnapshot to roll back every mutation made since.
func (db *DB) Snapshot() int { return len(db.journal) }

// RevertToSnapshot undoes all mutations recorded after the snapshot was
// taken. Reverting to a stale (already reverted) snapshot is a no-op.
func (db *DB) RevertToSnapshot(id int) {
	if id < 0 || id > len(db.journal) {
		return
	}
	for i := len(db.journal) - 1; i >= id; i-- {
		c := &db.journal[i]
		switch c.kind {
		case chCreate:
			delete(db.accounts, c.addr)
		case chBalance:
			db.accounts[c.addr].balance = weiOfWord(c.prev)
		case chNonce:
			db.accounts[c.addr].nonce = c.nonce
		case chContract:
			db.accounts[c.addr].contract = c.contract
		case chAccount:
			*db.accounts[c.addr] = account{balance: weiOfWord(c.prev), nonce: c.nonce, contract: c.contract}
		case chSlot:
			db.putWord(c.addr, c.slot, c.prev)
		}
	}
	db.journal = db.journal[:id]
}

// DiscardJournal drops undo history up to the current point (e.g., at block
// boundaries once a block is final). Snapshots taken earlier become stale.
func (db *DB) DiscardJournal() { db.journal = db.journal[:0] }

// ApplyWrites installs the net write-set of a validated optimistic
// execution. Each mutation is journaled, so snapshots taken before the
// call roll the write-set back exactly like individually applied
// mutations would.
func (db *DB) ApplyWrites(ws WriteSet) {
	for i := range ws.v.accts {
		r := &ws.v.accts[i]
		if !r.written() {
			continue
		}
		acc := db.account(r.addr)
		db.journal = append(db.journal, dbChange{kind: chAccount, addr: r.addr,
			prev: acc.balance.word(), nonce: acc.nonce, contract: acc.contract})
		*acc = account{balance: r.cur.balance, nonce: r.cur.nonce, contract: r.cur.contract}
	}
	for i := range ws.v.slots {
		if r := &ws.v.slots[i]; r.written() {
			db.SetState(r.key.Addr, r.key.Slot, r.cur)
		}
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
