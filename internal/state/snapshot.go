package state

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/rlp"
	"repro/internal/types"
)

// EncodeSnapshot serializes the world state deterministically: accounts
// and storage are emitted in sorted order, so two DBs with equal content
// produce byte-identical snapshots regardless of map iteration order or
// mutation history. The journal is NOT captured — snapshots are taken at
// block boundaries, where undo history is irrelevant.
//
// Layout (RLP):
//
//	[ accounts, storage ]
//	accounts := [ [addr, balance, nonce, contractFlag], … ]   sorted by addr
//	storage  := [ [addr, [ [slot, value], … ] ], … ]          sorted by addr, slot
func (db *DB) EncodeSnapshot() ([]byte, error) {
	addrs := make([]types.Address, 0, len(db.accounts))
	for addr := range db.accounts {
		addrs = append(addrs, addr)
	}
	sortAddrs(addrs)
	accounts := make([]any, 0, len(addrs))
	for _, addr := range addrs {
		acc := db.accounts[addr]
		flag := uint64(0)
		if acc.contract {
			flag = 1
		}
		accounts = append(accounts, []any{addr.Bytes(), acc.balance.Big(), acc.nonce, flag})
	}

	saddrs := make([]types.Address, 0, len(db.storage))
	for addr := range db.storage {
		saddrs = append(saddrs, addr)
	}
	sortAddrs(saddrs)
	storage := make([]any, 0, len(saddrs))
	for _, addr := range saddrs {
		words := db.storage[addr]
		slots := make([]types.Hash, 0, len(words))
		for slot := range words {
			slots = append(slots, slot)
		}
		sort.Slice(slots, func(i, j int) bool {
			return bytes.Compare(slots[i][:], slots[j][:]) < 0
		})
		kvs := make([]any, 0, len(slots))
		for _, slot := range slots {
			val := words[slot]
			kvs = append(kvs, []any{slot.Bytes(), val.Bytes()})
		}
		storage = append(storage, []any{addr.Bytes(), kvs})
	}

	return rlp.EncodeList(accounts, storage)
}

func sortAddrs(addrs []types.Address) {
	sort.Slice(addrs, func(i, j int) bool {
		return bytes.Compare(addrs[i][:], addrs[j][:]) < 0
	})
}

// DecodeSnapshot reconstructs a DB from an EncodeSnapshot blob. The
// returned DB has an empty journal (snapshot ids from before the
// snapshot are meaningless against it).
func DecodeSnapshot(b []byte) (*DB, error) {
	top, err := rlp.Decode(b)
	if err != nil {
		return nil, fmt.Errorf("state: decode snapshot: %w", err)
	}
	if !top.IsList || len(top.List) != 2 {
		return nil, fmt.Errorf("state: snapshot is not a 2-element list")
	}
	db := New()

	accounts := top.List[0]
	if !accounts.IsList {
		return nil, fmt.Errorf("state: snapshot accounts is not a list")
	}
	for i, item := range accounts.List {
		if !item.IsList || len(item.List) != 4 {
			return nil, fmt.Errorf("state: snapshot account %d malformed", i)
		}
		if item.List[0].IsList || len(item.List[0].Bytes) != types.AddressLength {
			return nil, fmt.Errorf("state: snapshot account %d has bad address", i)
		}
		addr := types.BytesToAddress(item.List[0].Bytes)
		raw, err := item.List[1].BigInt()
		if err != nil {
			return nil, fmt.Errorf("state: snapshot account %d balance: %w", i, err)
		}
		balance, ok := WeiOf(raw)
		if !ok {
			return nil, fmt.Errorf("state: snapshot account %d balance is wider than 256 bits", i)
		}
		nonce, err := item.List[2].Uint()
		if err != nil {
			return nil, fmt.Errorf("state: snapshot account %d nonce: %w", i, err)
		}
		flag, err := item.List[3].Uint()
		if err != nil {
			return nil, fmt.Errorf("state: snapshot account %d contract flag: %w", i, err)
		}
		db.accounts[addr] = &account{balance: balance, nonce: nonce, contract: flag == 1}
	}

	storage := top.List[1]
	if !storage.IsList {
		return nil, fmt.Errorf("state: snapshot storage is not a list")
	}
	for i, item := range storage.List {
		if !item.IsList || len(item.List) != 2 || !item.List[1].IsList {
			return nil, fmt.Errorf("state: snapshot storage entry %d malformed", i)
		}
		if item.List[0].IsList || len(item.List[0].Bytes) != types.AddressLength {
			return nil, fmt.Errorf("state: snapshot storage entry %d has bad address", i)
		}
		addr := types.BytesToAddress(item.List[0].Bytes)
		words := make(map[types.Hash]types.Hash, len(item.List[1].List))
		for j, kv := range item.List[1].List {
			if !kv.IsList || len(kv.List) != 2 || kv.List[0].IsList || kv.List[1].IsList {
				return nil, fmt.Errorf("state: snapshot storage entry %d word %d malformed", i, j)
			}
			if len(kv.List[0].Bytes) != types.HashLength || len(kv.List[1].Bytes) != types.HashLength {
				return nil, fmt.Errorf("state: snapshot storage entry %d word %d has bad width", i, j)
			}
			words[types.BytesToHash(kv.List[0].Bytes)] = types.BytesToHash(kv.List[1].Bytes)
		}
		db.storage[addr] = words
	}
	return db, nil
}
