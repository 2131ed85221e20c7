package abi

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestSelectorKnownVector(t *testing.T) {
	// The canonical ERC-20 transfer selector.
	sel := SelectorFor("transfer(address,uint256)")
	if sel.Hex() != "0xa9059cbb" {
		t.Errorf("selector = %s, want 0xa9059cbb", sel.Hex())
	}
}

func TestSignatureDerivation(t *testing.T) {
	sig, err := Signature("transfer", types.Address{}, new(big.Int))
	if err != nil {
		t.Fatal(err)
	}
	if sig != "transfer(address,uint256)" {
		t.Errorf("signature = %q", sig)
	}

	sig, err = Signature("f", uint64(0), true, []byte(nil), "", [][]byte(nil))
	if err != nil {
		t.Fatal(err)
	}
	if sig != "f(uint256,bool,bytes,string,bytes[])" {
		t.Errorf("signature = %q", sig)
	}

	if _, err := Signature("f", 3.14); err == nil {
		t.Error("unsupported type accepted")
	}
}

func TestEncodeStaticWords(t *testing.T) {
	addr := types.MustHexToAddress("0x366c0ad2f0908deadbeef012345678901234abcd")
	enc, err := Encode(addr, uint64(69), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 96 {
		t.Fatalf("encoded length = %d, want 96", len(enc))
	}
	if !bytes.Equal(enc[12:32], addr.Bytes()) {
		t.Error("address not right-aligned in word 0")
	}
	if enc[63] != 69 {
		t.Errorf("uint word low byte = %d, want 69", enc[63])
	}
	if enc[95] != 1 {
		t.Error("bool word not 1")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	addr := types.MustHexToAddress("0xd488deadbeef0000000000000000000000000001")
	amount := new(big.Int).Lsh(big.NewInt(1), 200)
	payload := []byte("some dynamic payload")
	note := "hello world"
	tokens := [][]byte{[]byte("token-one"), []byte("token-two-is-longer-than-32-bytes-aaaa")}

	enc, err := Encode(addr, amount, true, payload, note, tokens)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(enc, types.Address{}, (*big.Int)(nil), false, []byte(nil), "", [][]byte(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(types.Address) != addr {
		t.Error("address mismatch")
	}
	if out[1].(*big.Int).Cmp(amount) != 0 {
		t.Error("big.Int mismatch")
	}
	if out[2].(bool) != true {
		t.Error("bool mismatch")
	}
	if !bytes.Equal(out[3].([]byte), payload) {
		t.Error("bytes mismatch")
	}
	if out[4].(string) != note {
		t.Error("string mismatch")
	}
	got := out[5].([][]byte)
	if len(got) != 2 || !bytes.Equal(got[0], tokens[0]) || !bytes.Equal(got[1], tokens[1]) {
		t.Error("bytes[] mismatch")
	}
}

func TestPackSelectorPrefix(t *testing.T) {
	addr := types.Address{1}
	data, err := Pack("transfer", addr, big.NewInt(42))
	if err != nil {
		t.Fatal(err)
	}
	want := SelectorFor("transfer(address,uint256)")
	if !bytes.Equal(data[:4], want[:]) {
		t.Errorf("pack prefix = %x, want %x", data[:4], want[:])
	}
	if len(data) != 4+64 {
		t.Errorf("pack length = %d, want 68", len(data))
	}
}

func TestDecodeUint64Overflow(t *testing.T) {
	enc, err := Encode(new(big.Int).Lsh(big.NewInt(1), 70))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc, uint64(0)); err == nil {
		t.Error("uint64 overflow not detected")
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	if _, err := Encode(big.NewInt(-1)); err == nil {
		t.Error("negative big.Int accepted")
	}
	if _, err := Encode(new(big.Int).Lsh(big.NewInt(1), 256)); err == nil {
		t.Error("overflowing big.Int accepted")
	}
	if _, err := Encode(struct{}{}); err == nil {
		t.Error("unsupported type accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}, uint64(0)); err == nil {
		t.Error("short data accepted")
	}
	// Offset pointing past the end.
	bad := make([]byte, 32)
	bad[31] = 0xff
	if _, err := Decode(bad, []byte(nil)); err == nil {
		t.Error("out-of-bounds offset accepted")
	}
	// Array with absurd length.
	enc, err := Encode([][]byte{{1}})
	if err != nil {
		t.Fatal(err)
	}
	enc[63] = 0xff // corrupt the array length word
	if _, err := Decode(enc, [][]byte(nil)); err == nil {
		t.Error("corrupt array length accepted")
	}
}

func TestEmptyDynamicValues(t *testing.T) {
	enc, err := Encode([]byte{}, "", [][]byte{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(enc, []byte(nil), "", [][]byte(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0].([]byte)) != 0 || out[1].(string) != "" || len(out[2].([][]byte)) != 0 {
		t.Errorf("empty dynamic round trip: %v", out)
	}
}

func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(a []byte, b string, c uint64) bool {
		enc, err := Encode(a, b, c)
		if err != nil {
			return false
		}
		out, err := Decode(enc, []byte(nil), "", uint64(0))
		if err != nil {
			return false
		}
		return bytes.Equal(out[0].([]byte), a) && out[1].(string) == b && out[2].(uint64) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTokenArrayRoundTrip(t *testing.T) {
	f := func(tok1, tok2, tok3 []byte) bool {
		arr := [][]byte{tok1, tok2, tok3}
		enc, err := Encode(arr)
		if err != nil {
			return false
		}
		out, err := Decode(enc, [][]byte(nil))
		if err != nil {
			return false
		}
		got := out[0].([][]byte)
		if len(got) != 3 {
			return false
		}
		for i := range arr {
			if !bytes.Equal(got[i], arr[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkPack is one calldata encoding as a guarded transaction pays it:
// the selector keccak plus the argument words.
func BenchmarkPack(b *testing.B) {
	to := types.BytesToAddress([]byte{0xaa})
	amount := big.NewInt(1_000_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Pack("transfer", to, amount); err != nil {
			b.Fatal(err)
		}
	}
}
