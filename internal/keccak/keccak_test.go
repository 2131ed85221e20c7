package keccak

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestSum256KnownVectors(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want string
	}{
		{"empty", "", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
		{"abc", "abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
		{"fox", "The quick brown fox jumps over the lazy dog", "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"},
		{"hello", "hello", "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8"},
		{"transfer selector", "transfer(address,uint256)", "a9059cbb2ab09eb219583f4a59a5d0623ade346d962bcd4e46b11da047c9049b"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Sum256([]byte(tt.in))
			if hex.EncodeToString(got[:]) != tt.want {
				t.Errorf("Sum256(%q) = %x, want %s", tt.in, got, tt.want)
			}
		})
	}
}

func TestIncrementalMatchesOneShot(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	want := Sum256(data)

	for _, chunk := range []int{1, 7, 135, 136, 137, 500} {
		h := New()
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			if _, err := h.Write(data[off:end]); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
		if got := h.Sum256(); got != want {
			t.Errorf("chunk size %d: digest mismatch", chunk)
		}
	}
}

func TestReset(t *testing.T) {
	h := New()
	h.Write([]byte("garbage"))
	h.Sum256()
	h.Reset()
	h.Write([]byte("abc"))
	got := h.Sum256()
	want := Sum256([]byte("abc"))
	if got != want {
		t.Errorf("Reset did not restore initial state")
	}
}

func TestSum256ConcatEquivalence(t *testing.T) {
	f := func(a, b, c []byte) bool {
		joined := Sum256(bytes.Join([][]byte{a, b, c}, nil))
		return Sum256Concat(a, b, c) == joined
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockBoundaryLengths(t *testing.T) {
	// Hash inputs straddling the 136-byte rate boundary; the one-shot and
	// incremental paths must agree and digests must be distinct for
	// distinct inputs.
	seen := make(map[[32]byte]int)
	for _, n := range []int{0, 1, 135, 136, 137, 271, 272, 273, 1000} {
		data := bytes.Repeat([]byte{0x5a}, n)
		d := Sum256(data)
		if prev, dup := seen[d]; dup {
			t.Fatalf("digest collision between lengths %d and %d", prev, n)
		}
		seen[d] = n
	}
}

// TestSum256BlockBoundaryVectors pins digests around the 136-byte rate, for
// data[i] = byte(i*31), as the loop-based permutation computed them.
func TestSum256BlockBoundaryVectors(t *testing.T) {
	want := map[int]string{
		135:  "76b35d7ca45fde42bfd23f43f995d718c15b8b041f5e5ecfa78c47d12c38b341",
		136:  "b26a8c0d3be9cddfb82f82558944fb9a5b9fd35e0dced2b855f100512e9c4ce6",
		137:  "2a3742e2994779ce26292e82ea490ab61217dd828b4146f2e9d4e1b21507853d",
		272:  "8cd31dc68624afcb73c861a1a1cfd70627231d1974187815ee2687d93d83d29a",
		1000: "306a1e0a968f0e0c098156a6315e16c97ff1f5e02fbbf95f31877b217054014f",
	}
	for n, w := range want {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 31)
		}
		if got := Sum256(data); hex.EncodeToString(got[:]) != w {
			t.Errorf("Sum256(%d bytes) = %x, want %s", n, got, w)
		}
	}
}

func TestSum256DoesNotAllocate(t *testing.T) {
	data := make([]byte, 300)
	cases := map[string]func(){
		"Sum256":       func() { Sum256(data) },
		"Sum256Concat": func() { Sum256Concat(data[:100], data[100:]) },
		"Hasher": func() {
			var h Hasher
			h.Write(data) //nolint:errcheck // never fails
			h.Sum256()
		},
	}
	for name, f := range cases {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, n)
		}
	}
}

func BenchmarkKeccakF1600(b *testing.B) {
	var s [25]uint64
	for i := 0; i < b.N; i++ {
		keccakF1600(&s)
	}
}

func BenchmarkSum256_32B(b *testing.B) { benchSum(b, 32) }
func BenchmarkSum256_1K(b *testing.B)  { benchSum(b, 1024) }

func benchSum(b *testing.B, n int) {
	data := make([]byte, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}
