package state

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/types"
)

// A reference for View and ApplyWrites: plain maps of accounts and
// slots, where a snapshot is a deep copy. Sequences of reads, credits,
// debits, nonce bumps, stores and nested snapshots/reverts run on a view
// and on the model side by side; every read, every error text and every
// panic must agree, and so must the DB once the view's write-set is
// applied, or reverted at the DB level.

type modelAcct struct {
	balance  *big.Int
	nonce    uint64
	contract bool
}

// model is the reference state: an account is present exactly when it
// exists, and only nonzero words are stored.
type model struct {
	accts map[types.Address]modelAcct
	slots map[SlotKey]types.Hash
}

func (m *model) clone() *model {
	c := &model{accts: make(map[types.Address]modelAcct, len(m.accts)), slots: make(map[SlotKey]types.Hash, len(m.slots))}
	for a, acc := range m.accts {
		acc.balance = new(big.Int).Set(acc.balance)
		c.accts[a] = acc
	}
	for k, w := range m.slots {
		c.slots[k] = w
	}
	return c
}

// acct returns addr's account, a fresh zero one when it is absent.
func (m *model) acct(addr types.Address) modelAcct {
	if acc, ok := m.accts[addr]; ok {
		return acc
	}
	return modelAcct{balance: new(big.Int)}
}

// credit returns the panic a credit raises, "" when it succeeds; a
// credit that panics changes nothing.
func (m *model) credit(addr types.Address, amount *big.Int) string {
	if amount.Sign() < 0 || amount.BitLen() > 256 {
		return "not a 256-bit amount"
	}
	acc := m.acct(addr)
	sum := new(big.Int).Add(acc.balance, amount)
	if sum.BitLen() > 256 {
		return "overflows 256 bits"
	}
	acc.balance = sum
	m.accts[addr] = acc
	return ""
}

// debit returns a debit's error text and the panic it raises.
func (m *model) debit(addr types.Address, amount *big.Int) (errText, panicText string) {
	if amount.Sign() < 0 {
		return "", "negative"
	}
	if amount.Sign() == 0 {
		return "", ""
	}
	acc := m.acct(addr)
	if acc.balance.Cmp(amount) < 0 {
		return fmt.Sprintf("state: insufficient balance: %s has %s, needs %s", addr, acc.balance, amount), ""
	}
	acc.balance = new(big.Int).Sub(acc.balance, amount)
	m.accts[addr] = acc
	return "", ""
}

func (m *model) setState(k SlotKey, w types.Hash) (prev types.Hash) {
	prev = m.slots[k]
	if w == (types.Hash{}) {
		delete(m.slots, k)
	} else {
		m.slots[k] = w
	}
	return prev
}

// The locations a sequence draws from.
var (
	modelAddrs = []types.Address{addr(1), addr(2), addr(3), addr(4)}
	modelSlots = []types.Hash{slot(0), slot(1), slot(2), slot(3)}
)

// ops decodes a fuzz input: each byte read past the end is zero.
type ops struct{ data []byte }

func (o *ops) more() bool { return len(o.data) > 0 }

func (o *ops) next() byte {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b
}

func (o *ops) addr() types.Address { return modelAddrs[int(o.next())%len(modelAddrs)] }

func (o *ops) key() SlotKey {
	return SlotKey{Addr: o.addr(), Slot: modelSlots[int(o.next())%len(modelSlots)]}
}

// amount draws a small, a 64-bit, a near-2^256, a wider than 256-bit or
// a negative amount.
func (o *ops) amount() *big.Int {
	n := big.NewInt(int64(o.next()))
	switch o.next() % 10 {
	case 6:
		for i := 0; i < 7; i++ {
			n.Lsh(n, 8).Or(n, big.NewInt(int64(o.next())))
		}
	case 7:
		n.Sub(new(big.Int).Sub(two256, big.NewInt(1)), n)
	case 8:
		n.Add(two256, n)
	case 9:
		n.Neg(n).Sub(n, big.NewInt(1))
	}
	return n
}

// panicOf runs f and returns the text of its panic, "" when it returns.
func panicOf(f func()) (text string) {
	defer func() {
		if p := recover(); p != nil {
			text = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

func samePanic(t *testing.T, step int, op, got, want string) {
	t.Helper()
	if (want == "") != (got == "") || !strings.Contains(got, want) {
		t.Fatalf("step %d %s: panic %q, model %q", step, op, got, want)
	}
}

// sameState compares every location of r with m.
func sameState(t *testing.T, label string, r reader, m *model) {
	t.Helper()
	for _, a := range modelAddrs {
		acc, ok := m.accts[a]
		if !ok {
			acc = modelAcct{balance: new(big.Int)}
		}
		if r.Exists(a) != ok || r.Balance(a).Cmp(acc.balance) != 0 || r.Nonce(a) != acc.nonce || r.IsContract(a) != acc.contract {
			t.Fatalf("%s: account %s = (%v, %s, %d, %v), model (%v, %s, %d, %v)", label, a,
				r.Exists(a), r.Balance(a), r.Nonce(a), r.IsContract(a), ok, acc.balance, acc.nonce, acc.contract)
		}
		words := 0
		for _, s := range modelSlots {
			k := SlotKey{Addr: a, Slot: s}
			if got := r.GetState(a, s); got != m.slots[k] {
				t.Fatalf("%s: word %s/%s = %s, model %s", label, a, s, got, m.slots[k])
			}
			if _, ok := m.slots[k]; ok {
				words++
			}
		}
		if db, ok := r.(*DB); ok && db.StorageWords(a) != words {
			t.Fatalf("%s: %s holds %d words, model %d", label, a, db.StorageWords(a), words)
		}
	}
}

// checkViewMatchesModel runs one decoded sequence: rounds of view
// operations, each ending in ApplyWrites and sometimes a DB-level revert
// to the start of an earlier round.
func checkViewMatchesModel(t *testing.T, data []byte) {
	type mark struct {
		id int
		m  *model
	}
	db := New()
	committed := &model{accts: map[types.Address]modelAcct{}, slots: map[SlotKey]types.Hash{}}
	var rounds []mark // the DB and the model before each round's apply
	o := &ops{data}
	for step := 0; o.more(); {
		v, m := NewView(db), committed.clone()
		var snaps []mark
		for ; o.more(); step++ {
			op := o.next() % 12
			if op == 11 {
				break // end the round
			}
			switch op {
			case 0:
				a := o.addr()
				acc, ok := m.accts[a]
				if !ok {
					acc = modelAcct{balance: new(big.Int)}
				}
				if v.Exists(a) != ok || v.Balance(a).Cmp(acc.balance) != 0 || v.BalanceWei(a).Big().Cmp(acc.balance) != 0 ||
					v.Nonce(a) != acc.nonce || v.IsContract(a) != acc.contract {
					t.Fatalf("step %d: read of %s diverges from the model", step, a)
				}
			case 1:
				k := o.key()
				if got := v.GetState(k.Addr, k.Slot); got != m.slots[k] {
					t.Fatalf("step %d: GetState %v = %s, model %s", step, k, got, m.slots[k])
				}
			case 2, 3:
				a, x := o.addr(), o.amount()
				want := m.credit(a, x)
				samePanic(t, step, "credit of "+x.String(), panicOf(func() { v.AddBalance(a, x) }), want)
			case 4, 5:
				a, x := o.addr(), o.amount()
				wantErr, wantPanic := m.debit(a, x)
				var err error
				samePanic(t, step, "debit of "+x.String(), panicOf(func() { err = v.SubBalance(a, x) }), wantPanic)
				gotErr := ""
				if err != nil {
					gotErr = err.Error()
					if !errors.Is(err, ErrInsufficientBalance) {
						t.Fatalf("step %d: debit error %v does not wrap ErrInsufficientBalance", step, err)
					}
				}
				if gotErr != wantErr {
					t.Fatalf("step %d: debit of %s: error %q, model %q", step, x, gotErr, wantErr)
				}
			case 6:
				a := o.addr()
				v.IncNonce(a)
				acc := m.acct(a)
				acc.nonce++
				m.accts[a] = acc
			case 7:
				a := o.addr()
				v.MarkContract(a)
				acc := m.acct(a)
				acc.contract = true
				m.accts[a] = acc
			case 8, 9:
				k := o.key()
				var w types.Hash
				if op == 9 {
					w[31] = o.next() | 1
				}
				if got, want := v.SetState(k.Addr, k.Slot, w), m.setState(k, w); got != want {
					t.Fatalf("step %d: SetState %v returned %s, model %s", step, k, got, want)
				}
			case 10:
				if b := o.next(); b%2 == 0 || len(snaps) == 0 {
					snaps = append(snaps, mark{v.Snapshot(), m.clone()})
				} else {
					j := int(b/2) % len(snaps)
					v.RevertToSnapshot(snaps[j].id)
					m, snaps = snaps[j].m.clone(), snaps[:j+1]
				}
			}
		}
		sameState(t, fmt.Sprintf("step %d: view", step), v, m)

		rounds = append(rounds, mark{db.Snapshot(), committed})
		db.ApplyWrites(v.Writes())
		sameState(t, fmt.Sprintf("step %d: applied", step), db, m)
		committed = m
		if b := o.next(); b%4 == 0 {
			j := int(b/4) % len(rounds)
			db.RevertToSnapshot(rounds[j].id)
			committed, rounds = rounds[j].m, rounds[:j]
			sameState(t, fmt.Sprintf("step %d: reverted to round %d", step, j), db, committed)
		}
	}
}

// TestViewMatchesModel is FuzzViewMatchesModel's seeded run: a few
// hundred random sequences.
func TestViewMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for i := 0; i < 400; i++ {
		data := make([]byte, 64+rng.Intn(448))
		rng.Read(data)
		checkViewMatchesModel(t, data)
	}
}

func FuzzViewMatchesModel(f *testing.F) {
	f.Add([]byte{2, 0, 5, 0, 6, 0, 4, 0, 200, 0, 11, 0})
	f.Add([]byte{2, 1, 255, 7, 2, 1, 3, 0, 10, 0, 9, 1, 2, 7, 10, 1, 4, 1, 255, 8, 11, 4})
	f.Add([]byte{10, 0, 7, 2, 8, 2, 1, 10, 0, 6, 3, 10, 3, 0, 3, 11, 0, 2, 3, 0, 0, 11, 4})
	f.Fuzz(func(t *testing.T, data []byte) { checkViewMatchesModel(t, data) })
}
