package gas

import (
	"errors"
	"math"
	"testing"
)

func TestMeterCharge(t *testing.T) {
	m := NewMeter(1000)
	if err := m.Charge(CatVerify, 400); err != nil {
		t.Fatal(err)
	}
	if err := m.Charge(CatMisc, 500); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 900 || m.Remaining() != 100 {
		t.Errorf("used=%d remaining=%d", m.Used(), m.Remaining())
	}
	byCat := m.ByCategory()
	if byCat[CatVerify] != 400 || byCat[CatMisc] != 500 {
		t.Errorf("breakdown = %v", byCat)
	}
}

func TestMeterOutOfGas(t *testing.T) {
	m := NewMeter(100)
	err := m.Charge(CatApp, 101)
	if !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("err = %v, want ErrOutOfGas", err)
	}
	// EVM semantics: out-of-gas drains the meter.
	if m.Used() != 100 || m.Remaining() != 0 {
		t.Errorf("used=%d after OOG, want limit", m.Used())
	}
	if m.ByCategory()[CatApp] != 100 {
		t.Errorf("category not drained: %v", m.ByCategory())
	}
}

func TestMeterOverflowGuard(t *testing.T) {
	m := NewMeter(math.MaxUint64)
	if err := m.Charge(CatApp, math.MaxUint64-10); err != nil {
		t.Fatal(err)
	}
	if err := m.Charge(CatApp, 100); !errors.Is(err, ErrOutOfGas) {
		t.Errorf("overflowing charge accepted: %v", err)
	}
}

func TestByCategoryIsCopy(t *testing.T) {
	m := NewMeter(1000)
	_ = m.Charge(CatApp, 10)
	snapshot := m.ByCategory()
	snapshot[CatApp] = 9999
	if m.ByCategory()[CatApp] != 10 {
		t.Error("ByCategory exposes internal map")
	}
}

func TestCalldataGas(t *testing.T) {
	// 3 zero bytes + 2 nonzero bytes.
	data := []byte{0, 1, 0, 2, 0}
	want := 3*TxDataZeroByte + 2*TxDataNonZeroByte
	if got := CalldataGas(data); got != want {
		t.Errorf("CalldataGas = %d, want %d", got, want)
	}
	if CalldataGas(nil) != 0 {
		t.Error("empty calldata should be free")
	}
}

func TestKeccakGas(t *testing.T) {
	tests := []struct {
		n    int
		want uint64
	}{
		{0, 30},
		{1, 36},
		{32, 36},
		{33, 42},
		{64, 42},
	}
	for _, tt := range tests {
		if got := KeccakGas(tt.n); got != tt.want {
			t.Errorf("KeccakGas(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestUSDCalibration(t *testing.T) {
	// The calibration must reproduce the paper's own Table II conversion:
	// 165957 gas ↦ ~$0.041.
	usd := DefaultPrice.USD(165957)
	if usd < 0.040 || usd > 0.042 {
		t.Errorf("USD(165957) = %f, want ≈0.041", usd)
	}
	// And Table IV: 8849037 gas ↦ ~$2.14 (±10%%).
	usd = DefaultPrice.USD(8849037)
	if usd < 1.9 || usd > 2.4 {
		t.Errorf("USD(8849037) = %f, want ≈2.14", usd)
	}
}

func TestWei(t *testing.T) {
	wei := DefaultPrice.Wei(1)
	// 1.83 gwei = 1.83e9 wei.
	if wei.Int64() != 1_830_000_000 {
		t.Errorf("Wei(1) = %s, want 1830000000", wei)
	}
	wei = DefaultPrice.Wei(1000)
	if wei.Int64() != 1_830_000_000_000 {
		t.Errorf("Wei(1000) = %s", wei)
	}
}

// The breakdown lists every category charged, zero charges and
// categories outside the predefined set included, and nothing else.
func TestByCategoryKeys(t *testing.T) {
	m := NewMeter(1000)
	_ = m.Charge(CatMisc, 0)
	_ = m.Charge(CatApp, 7)
	_ = m.Charge(Category("custom"), 5)
	_ = m.Charge(CatApp, 3)
	got := m.ByCategory()
	want := map[Category]uint64{CatMisc: 0, CatApp: 10, "custom": 5}
	if len(got) != len(want) {
		t.Fatalf("breakdown = %v, want %v", got, want)
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("breakdown = %v, want %v", got, want)
		}
	}
}

// Charging a predefined category allocates nothing.
func TestChargeAllocations(t *testing.T) {
	m := NewMeter(math.MaxUint64)
	if n := testing.AllocsPerRun(100, func() {
		for _, c := range categories {
			_ = m.Charge(c, 1)
		}
	}); n != 0 {
		t.Errorf("Charge allocated %.0f times", n)
	}
}
