package secp256k1

import "testing"

// TestFieldGenericDispatch reruns the field differential with hasMULX
// cleared, so fieldMul and fieldSqr take their tail jump to the Go code
// even on a CPU that has BMI2 and ADX. hasMULX is package state: this test
// must not run in parallel with another.
func TestFieldGenericDispatch(t *testing.T) {
	saved := hasMULX
	hasMULX = false
	t.Cleanup(func() { hasMULX = saved })
	TestFieldDifferential(t)
	TestFieldReduce512(t)
}
