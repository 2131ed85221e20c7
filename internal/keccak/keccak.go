// Package keccak implements the legacy Keccak-256 hash function as used by
// Ethereum. It predates the FIPS-202 SHA3 standard and uses the original
// Keccak padding (domain-separation byte 0x01) rather than SHA3's 0x06, so
// its digests match Ethereum's KECCAK256 opcode, method-selector derivation,
// and address derivation. The permutation is unrolled pure Go: the standard
// library offers only SHA3 padding, and only from go 1.24.
package keccak

import "math/bits"

const (
	// rate is the sponge rate in bytes for a 256-bit capacity (1088 bits).
	rate = 136
	// Size is the digest size in bytes.
	Size = 32
)

// roundConstants are the iota-step constants of Keccak-f[1600].
var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808a, 0x8000000080008000,
	0x000000000000808b, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008a, 0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
	0x000000008000808b, 0x800000000000008b, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800a, 0x800000008000000a,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// keccakF1600 applies the 24-round Keccak-f[1600] permutation in place.
// Lanes are indexed a[x+5*y]. The permutation is written out in full over
// locals: aXY holds lane (x, y) and bXY its rho-and-pi image, so a round
// has no modulo, no index table and no bounds check, and the rho offsets
// are constants. The loop-based reference it is tested against is
// refKeccakF1600 in reference_test.go.
func keccakF1600(a *[25]uint64) {
	a00, a10, a20, a30, a40 := a[0], a[1], a[2], a[3], a[4]
	a01, a11, a21, a31, a41 := a[5], a[6], a[7], a[8], a[9]
	a02, a12, a22, a32, a42 := a[10], a[11], a[12], a[13], a[14]
	a03, a13, a23, a33, a43 := a[15], a[16], a[17], a[18], a[19]
	a04, a14, a24, a34, a44 := a[20], a[21], a[22], a[23], a[24]
	for _, rc := range roundConstants {
		// Theta: dX = c(X-1) ^ rot(c(X+1), 1), c the column parities.
		c0 := a00 ^ a01 ^ a02 ^ a03 ^ a04
		c1 := a10 ^ a11 ^ a12 ^ a13 ^ a14
		c2 := a20 ^ a21 ^ a22 ^ a23 ^ a24
		c3 := a30 ^ a31 ^ a32 ^ a33 ^ a34
		c4 := a40 ^ a41 ^ a42 ^ a43 ^ a44
		d0, d1, d2, d3, d4 := c4^bits.RotateLeft64(c1, 1), c0^bits.RotateLeft64(c2, 1), c1^bits.RotateLeft64(c3, 1), c2^bits.RotateLeft64(c4, 1), c3^bits.RotateLeft64(c0, 1)
		// Rho and pi: lane (x, y) moves to (y, 2x+3y), one output row a line.
		b00, b10, b20, b30, b40 := a00^d0, bits.RotateLeft64(a11^d1, 44), bits.RotateLeft64(a22^d2, 43), bits.RotateLeft64(a33^d3, 21), bits.RotateLeft64(a44^d4, 14)
		b01, b11, b21, b31, b41 := bits.RotateLeft64(a30^d3, 28), bits.RotateLeft64(a41^d4, 20), bits.RotateLeft64(a02^d0, 3), bits.RotateLeft64(a13^d1, 45), bits.RotateLeft64(a24^d2, 61)
		b02, b12, b22, b32, b42 := bits.RotateLeft64(a10^d1, 1), bits.RotateLeft64(a21^d2, 6), bits.RotateLeft64(a32^d3, 25), bits.RotateLeft64(a43^d4, 8), bits.RotateLeft64(a04^d0, 18)
		b03, b13, b23, b33, b43 := bits.RotateLeft64(a40^d4, 27), bits.RotateLeft64(a01^d0, 36), bits.RotateLeft64(a12^d1, 10), bits.RotateLeft64(a23^d2, 15), bits.RotateLeft64(a34^d3, 56)
		b04, b14, b24, b34, b44 := bits.RotateLeft64(a20^d2, 62), bits.RotateLeft64(a31^d3, 55), bits.RotateLeft64(a42^d4, 39), bits.RotateLeft64(a03^d0, 41), bits.RotateLeft64(a14^d1, 2)
		// Chi along each row, and iota on lane (0, 0).
		a00, a10, a20, a30, a40 = b00^(^b10&b20)^rc, b10^(^b20&b30), b20^(^b30&b40), b30^(^b40&b00), b40^(^b00&b10)
		a01, a11, a21, a31, a41 = b01^(^b11&b21), b11^(^b21&b31), b21^(^b31&b41), b31^(^b41&b01), b41^(^b01&b11)
		a02, a12, a22, a32, a42 = b02^(^b12&b22), b12^(^b22&b32), b22^(^b32&b42), b32^(^b42&b02), b42^(^b02&b12)
		a03, a13, a23, a33, a43 = b03^(^b13&b23), b13^(^b23&b33), b23^(^b33&b43), b33^(^b43&b03), b43^(^b03&b13)
		a04, a14, a24, a34, a44 = b04^(^b14&b24), b14^(^b24&b34), b24^(^b34&b44), b34^(^b44&b04), b44^(^b04&b14)
	}
	a[0], a[1], a[2], a[3], a[4] = a00, a10, a20, a30, a40
	a[5], a[6], a[7], a[8], a[9] = a01, a11, a21, a31, a41
	a[10], a[11], a[12], a[13], a[14] = a02, a12, a22, a32, a42
	a[15], a[16], a[17], a[18], a[19] = a03, a13, a23, a33, a43
	a[20], a[21], a[22], a[23], a[24] = a04, a14, a24, a34, a44
}

// Hasher is an incremental Keccak-256 hasher. The zero value is ready to
// use. It implements the write/sum subset of hash.Hash that the rest of the
// repository needs.
type Hasher struct {
	state [25]uint64
	buf   [rate]byte
	n     int
}

// New returns a new Keccak-256 hasher.
func New() *Hasher { return &Hasher{} }

// Reset restores the hasher to its initial state.
func (h *Hasher) Reset() {
	h.state = [25]uint64{}
	h.n = 0
}

// Write absorbs p into the sponge. It never returns an error.
func (h *Hasher) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		n := copy(h.buf[h.n:], p)
		h.n += n
		p = p[n:]
		if h.n == rate {
			h.absorb()
		}
	}
	return total, nil
}

func (h *Hasher) absorb() {
	for i := 0; i < rate/8; i++ {
		h.state[i] ^= le64(h.buf[8*i:])
	}
	keccakF1600(&h.state)
	h.n = 0
}

// Sum256 finalizes the hash and returns the 32-byte digest. The hasher must
// not be written to afterwards (call Reset to reuse it).
func (h *Hasher) Sum256() [Size]byte {
	// Legacy Keccak padding: 0x01 ... 0x80 within the rate block.
	for i := h.n; i < rate; i++ {
		h.buf[i] = 0
	}
	h.buf[h.n] = 0x01
	h.buf[rate-1] |= 0x80
	h.n = rate
	h.absorb()

	var out [Size]byte
	for i := 0; i < Size/8; i++ {
		putLE64(out[8*i:], h.state[i])
	}
	return out
}

// Sum256 returns the Keccak-256 digest of data.
func Sum256(data []byte) [Size]byte {
	var h Hasher
	h.Write(data) //nolint:errcheck // never fails
	return h.Sum256()
}

// Sum256Concat returns the Keccak-256 digest of the concatenation of the
// given byte slices without materializing the concatenation.
func Sum256Concat(parts ...[]byte) [Size]byte {
	var h Hasher
	for _, p := range parts {
		h.Write(p) //nolint:errcheck // never fails
	}
	return h.Sum256()
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
