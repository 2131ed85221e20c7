// Package state implements the world state of the simulated chain:
// accounts (balance, nonce, contract flag) and per-contract word storage,
// with journaled snapshot/revert so failed calls roll back exactly as in
// the EVM.
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

type account struct {
	balance  *big.Int
	nonce    uint64
	contract bool
}

// DB is the mutable world state.
type DB struct {
	accounts map[types.Address]*account
	storage  map[types.Address]map[types.Hash]types.Hash
	journal  []func()
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
	acc := &account{balance: new(big.Int)}
	db.accounts[addr] = acc
	db.journal = append(db.journal, func() { delete(db.accounts, addr) })
	return acc
}

// peek returns the record of addr without creating it. It only reads, so
// views may call it concurrently while nothing writes to the DB. The
// balance aliases live state: callers copy it before mutating.
func (db *DB) peek(addr types.Address) acctData {
	acc, ok := db.accounts[addr]
	if !ok {
		return acctData{}
	}
	return acctData{exists: true, contract: acc.contract, nonce: acc.nonce, balance: acc.balance}
}

// Exists reports whether the address has ever been touched.
func (db *DB) Exists(addr types.Address) bool {
	_, ok := db.accounts[addr]
	return ok
}

// Balance returns a copy of the account balance (zero for fresh accounts).
func (db *DB) Balance(addr types.Address) *big.Int {
	if acc, ok := db.accounts[addr]; ok {
		return new(big.Int).Set(acc.balance)
	}
	return new(big.Int)
}

// AddBalance credits amount to addr.
func (db *DB) AddBalance(addr types.Address, amount *big.Int) {
	if amount == nil || amount.Sign() == 0 {
		db.account(addr) // still touch the account
		return
	}
	acc := db.account(addr)
	prev := new(big.Int).Set(acc.balance)
	acc.balance.Add(acc.balance, amount)
	db.journal = append(db.journal, func() { acc.balance.Set(prev) })
}

// SubBalance debits amount from addr, failing if the balance is
// insufficient.
func (db *DB) SubBalance(addr types.Address, amount *big.Int) error {
	if amount == nil || amount.Sign() == 0 {
		return nil
	}
	acc := db.account(addr)
	if acc.balance.Cmp(amount) < 0 {
		return fmt.Errorf("%w: %s has %s, needs %s", ErrInsufficientBalance, addr, acc.balance, amount)
	}
	prev := new(big.Int).Set(acc.balance)
	acc.balance.Sub(acc.balance, amount)
	db.journal = append(db.journal, func() { acc.balance.Set(prev) })
	return nil
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
	prev := acc.nonce
	acc.nonce++
	db.journal = append(db.journal, func() { acc.nonce = prev })
}

// MarkContract flags addr as a contract account.
func (db *DB) MarkContract(addr types.Address) {
	acc := db.account(addr)
	prev := acc.contract
	acc.contract = true
	db.journal = append(db.journal, func() { acc.contract = prev })
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
	s, ok := db.storage[addr]
	prev, had := s[slot]
	if value != (types.Hash{}) {
		if !ok {
			s = make(map[types.Hash]types.Hash)
			db.storage[addr] = s
			db.journal = append(db.journal, func() { delete(db.storage, addr) })
		}
		s[slot] = value
		db.journal = append(db.journal, func() {
			if had {
				s[slot] = prev
			} else {
				delete(s, slot)
			}
		})
		return prev
	}
	if had {
		delete(s, slot)
		if len(s) == 0 {
			delete(db.storage, addr)
		}
		db.journal = append(db.journal, func() {
			s[slot] = prev
			db.storage[addr] = s
		})
	}
	return prev
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
		db.journal[i]()
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
func (db *DB) ApplyWrites(ws *WriteSet) {
	for addr, data := range ws.accts {
		acc := db.account(addr)
		prevBalance := new(big.Int).Set(acc.balance)
		prevNonce := acc.nonce
		prevContract := acc.contract
		acc.balance.Set(data.balanceOrZero())
		acc.nonce = data.nonce
		acc.contract = data.contract
		db.journal = append(db.journal, func() {
			acc.balance.Set(prevBalance)
			acc.nonce = prevNonce
			acc.contract = prevContract
		})
	}
	for k, val := range ws.slots {
		db.SetState(k.Addr, k.Slot, val)
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
