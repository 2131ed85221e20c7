package keccak

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
)

// rotations[x][y] is the rho-step rotation for lane (x, y).
var rotations = [5][5]uint{
	{0, 36, 3, 41, 18},
	{1, 44, 10, 45, 2},
	{62, 6, 43, 15, 61},
	{28, 55, 25, 21, 56},
	{27, 20, 39, 8, 14},
}

// refKeccakF1600 is the loop-based Keccak-f[1600] permutation, step for step
// as the specification states it. It is the oracle for the unrolled
// keccakF1600. Lanes are indexed a[x+5*y].
func refKeccakF1600(a *[25]uint64) {
	var c, d [5]uint64
	var b [25]uint64
	for round := 0; round < 24; round++ {
		// Theta.
		for x := 0; x < 5; x++ {
			c[x] = a[x] ^ a[x+5] ^ a[x+10] ^ a[x+15] ^ a[x+20]
		}
		for x := 0; x < 5; x++ {
			d[x] = c[(x+4)%5] ^ bits.RotateLeft64(c[(x+1)%5], 1)
		}
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				a[x+5*y] ^= d[x]
			}
		}
		// Rho and pi.
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				b[y+5*((2*x+3*y)%5)] = bits.RotateLeft64(a[x+5*y], int(rotations[x][y]))
			}
		}
		// Chi.
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				a[x+5*y] = b[x+5*y] ^ (^b[(x+1)%5+5*y] & b[(x+2)%5+5*y])
			}
		}
		// Iota.
		a[0] ^= roundConstants[round]
	}
}

// refSum256 is a one-shot Keccak-256 sponge over refKeccakF1600: pad the
// whole message with the legacy 0x01 ... 0x80 rule, absorb it block by
// block, squeeze one 32-byte digest.
func refSum256(data []byte) [Size]byte {
	padded := append(append([]byte{}, data...), 0x01)
	for len(padded)%rate != 0 {
		padded = append(padded, 0)
	}
	padded[len(padded)-1] |= 0x80
	var state [25]uint64
	for ; len(padded) > 0; padded = padded[rate:] {
		for i := 0; i < rate/8; i++ {
			state[i] ^= binary.LittleEndian.Uint64(padded[8*i:])
		}
		refKeccakF1600(&state)
	}
	var out [Size]byte
	for i := 0; i < Size/8; i++ {
		binary.LittleEndian.PutUint64(out[8*i:], state[i])
	}
	return out
}

func TestPermutationDifferential(t *testing.T) {
	var states [][25]uint64
	var ones [25]uint64
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	states = append(states, [25]uint64{}, ones)
	for bit := 0; bit < 1600; bit++ {
		var s [25]uint64
		s[bit/64] = 1 << (bit % 64)
		states = append(states, s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		var s [25]uint64
		for j := range s {
			s[j] = rng.Uint64()
		}
		states = append(states, s)
	}

	for i, s := range states {
		got, want := s, s
		for call := 1; call <= 24; call++ {
			keccakF1600(&got)
			refKeccakF1600(&want)
			if got != want {
				t.Fatalf("state %d (input %x): call %d of a chain: got %x, want %x", i, s, call, got, want)
			}
		}
	}
}

func FuzzSum256Differential(f *testing.F) {
	f.Add([]byte(""), uint(0))
	f.Add([]byte("abc"), uint(1))
	f.Add(make([]byte, rate-1), uint(rate-1))
	f.Add(make([]byte, rate), uint(rate/2))
	f.Add(make([]byte, 2*rate+1), uint(rate))
	f.Fuzz(func(t *testing.T, data []byte, split uint) {
		k := int(split % uint(len(data)+1))
		want := refSum256(data)
		if got := Sum256(data); got != want {
			t.Fatalf("Sum256(%x) = %x, reference %x", data, got, want)
		}
		var h Hasher
		h.Write(data[:k]) //nolint:errcheck // never fails
		h.Write(data[k:]) //nolint:errcheck // never fails
		if got := h.Sum256(); got != want {
			t.Fatalf("Hasher split at %d of %x = %x, reference %x", k, data, got, want)
		}
		if got := Sum256Concat(data[:k], data[k:]); got != want {
			t.Fatalf("Sum256Concat split at %d of %x = %x, reference %x", k, data, got, want)
		}
	})
}
