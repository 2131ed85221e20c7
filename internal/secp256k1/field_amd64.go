package secp256k1

// hasMULX reports whether the CPU has BMI2 (MULX) and ADX (ADCX, ADOX):
// CPUID leaf 7, subleaf 0, EBX bits 8 and 19. fieldMul and fieldSqr read it
// on every call and run mulGeneric and sqrGeneric when it is false.
var hasMULX = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<8) != 0 && ebx&(1<<19) != 0
}()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// fieldMul and fieldSqr are mulGeneric and sqrGeneric as a MULX/ADX
// kernel: the same exact 512-bit product, the same three folds, the same
// limbs out. They read every input limb before storing one, so z may
// alias x and y.
//
//go:noescape
func fieldMul(z, x, y *fieldVal)

//go:noescape
func fieldSqr(z, x *fieldVal)

// mul sets z = x·y.
func (z *fieldVal) mul(x, y *fieldVal) { fieldMul(z, x, y) }

// sqr sets z = x².
func (z *fieldVal) sqr(x *fieldVal) { fieldSqr(z, x) }
