package secp256k1

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/keccak"
	"repro/internal/types"
)

// PublicKey is a point on the secp256k1 curve.
type PublicKey struct {
	// X and Y are the affine coordinates of the public point.
	X, Y *big.Int
}

// PrivateKey is a secp256k1 private scalar together with its public key.
type PrivateKey struct {
	// D is the private scalar in [1, n-1].
	D *big.Int
	// Pub is the corresponding public key D·G.
	Pub PublicKey
}

// ErrInvalidKey is returned for scalars outside [1, n-1] or points off the
// curve.
var ErrInvalidKey = errors.New("secp256k1: invalid key")

// GenerateKey creates a new random private key from rng (crypto/rand.Reader
// if rng is nil).
func GenerateKey(rng io.Reader) (*PrivateKey, error) {
	if rng == nil {
		rng = rand.Reader
	}
	for {
		var buf [32]byte
		if _, err := io.ReadFull(rng, buf[:]); err != nil {
			return nil, fmt.Errorf("generate key: %w", err)
		}
		var d scalarVal
		d.setBytes(&buf)
		if d.isZero() {
			continue
		}
		return NewPrivateKey(d.big())
	}
}

// NewPrivateKey builds a private key from the scalar d, validating its
// range and deriving the public point.
func NewPrivateKey(d *big.Int) (*PrivateKey, error) {
	var k scalarVal
	if !k.setBig(d) || k.isZero() {
		return nil, ErrInvalidKey
	}
	dG := scalarBaseMultComb(&k)
	p := dG.affine()
	return &PrivateKey{
		D:   new(big.Int).Set(d),
		Pub: PublicKey{X: p.x.big(), Y: p.y.big()},
	}, nil
}

// PrivateKeyFromSeed derives a deterministic private key from an arbitrary
// seed by hashing it onto the scalar field. It is intended for tests,
// examples, and benchmarks where reproducible keys matter.
func PrivateKeyFromSeed(seed []byte) *PrivateKey {
	counter := byte(0)
	for {
		h := keccak.Sum256Concat(seed, []byte{counter})
		var d scalarVal
		d.setBytes(&h)
		if !d.isZero() {
			key, err := NewPrivateKey(d.big())
			if err == nil {
				return key
			}
		}
		counter++
	}
}

// Valid reports whether the public key is a valid curve point (and not the
// point at infinity).
func (p PublicKey) Valid() bool {
	_, ok := p.point()
	return ok
}

// point converts the key to a field-typed curve point; ok is false unless
// both coordinates are present, in [0, p), and satisfy the curve equation.
func (p PublicKey) point() (q affineVal, ok bool) {
	if !q.x.setBig(p.X) || !q.y.setBig(p.Y) {
		return affineVal{}, false
	}
	return q, q.onCurve()
}

// Bytes returns the 64-byte uncompressed encoding (X ‖ Y, each 32 bytes,
// without the 0x04 prefix), matching what Ethereum hashes for address
// derivation.
func (p PublicKey) Bytes() []byte {
	out := make([]byte, 64)
	p.X.FillBytes(out[:32])
	p.Y.FillBytes(out[32:])
	return out
}

// ParsePublicKey parses a 64-byte uncompressed public key.
func ParsePublicKey(b []byte) (PublicKey, error) {
	if len(b) != 64 {
		return PublicKey{}, fmt.Errorf("%w: public key must be 64 bytes, got %d", ErrInvalidKey, len(b))
	}
	pub := PublicKey{
		X: new(big.Int).SetBytes(b[:32]),
		Y: new(big.Int).SetBytes(b[32:]),
	}
	if !pub.Valid() {
		return PublicKey{}, ErrInvalidKey
	}
	return pub, nil
}

// Address derives the Ethereum address of the key: the low 20 bytes of
// keccak256(X ‖ Y).
func (p PublicKey) Address() types.Address {
	var xy [64]byte
	p.X.FillBytes(xy[:32])
	p.Y.FillBytes(xy[32:])
	return addressOf(&xy)
}

// address is PublicKey.Address for a field-typed point.
func (p *affineVal) address() types.Address {
	var xy [64]byte
	x, y := p.x.bytes(), p.y.bytes()
	copy(xy[:32], x[:])
	copy(xy[32:], y[:])
	return addressOf(&xy)
}

// addressOf returns the low 20 bytes of keccak256(X ‖ Y).
func addressOf(xy *[64]byte) types.Address {
	h := keccak.Sum256(xy[:])
	return types.BytesToAddress(h[12:])
}

// Address is a convenience for the address of the key's public half.
func (k *PrivateKey) Address() types.Address { return k.Pub.Address() }
