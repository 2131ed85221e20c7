//go:build !amd64

package secp256k1

// mul sets z = x·y.
func (z *fieldVal) mul(x, y *fieldVal) { mulGeneric(z, x, y) }

// sqr sets z = x².
func (z *fieldVal) sqr(x *fieldVal) { sqrGeneric(z, x) }
