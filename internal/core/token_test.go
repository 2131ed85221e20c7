package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/abi"
	"repro/internal/secp256k1"
	"repro/internal/types"
)

var (
	testKey    = secp256k1.PrivateKeyFromSeed([]byte("ts key"))
	testExpire = time.Date(2020, 3, 17, 13, 0, 0, 0, time.UTC)
	testClient = types.Address{0x11}
	testTarget = types.Address{0x22}
)

func testBinding(data []byte) Binding {
	return Binding{
		Origin:   testClient,
		Contract: testTarget,
		Selector: abi.SelectorFor("withdraw(uint256)"),
		Data:     data,
	}
}

func TestTokenWireLayout(t *testing.T) {
	// Fig. 3: type 1B ‖ expire 4B ‖ index 16B ‖ signature 65B = 86 bytes.
	tk, err := SignToken(testKey, SuperType, testExpire, NotOneTime, testBinding(nil))
	if err != nil {
		t.Fatal(err)
	}
	enc := tk.Encode()
	if len(enc) != 86 || TokenLength != 86 {
		t.Fatalf("token length = %d, want 86", len(enc))
	}
	if enc[0] != byte(SuperType) {
		t.Errorf("type byte = %d", enc[0])
	}
	// Index field of a non-one-time token is all ones.
	for i := 5; i < 21; i++ {
		if enc[i] != 0xff {
			t.Errorf("index byte %d = %#x, want 0xff", i, enc[i])
		}
	}
	if !bytes.Equal(enc[21:], tk.Signature.Bytes()) {
		t.Error("signature bytes misplaced")
	}
}

func TestTokenRoundTrip(t *testing.T) {
	for _, tp := range []TokenType{SuperType, MethodType, ArgumentType} {
		for _, index := range []int64{NotOneTime, 0, 1, 1 << 40} {
			tk, err := SignToken(testKey, tp, testExpire, index, testBinding([]byte("data")))
			if err != nil {
				t.Fatal(err)
			}
			back, err := ParseToken(tk.Encode())
			if err != nil {
				t.Fatalf("%s/%d: %v", tp, index, err)
			}
			if back.Type != tp || back.Index != index || !back.Expire.Equal(tk.Expire.Truncate(time.Second)) {
				t.Errorf("%s/%d round trip: %+v", tp, index, back)
			}
			if back.OneTime() != (index >= 0) {
				t.Errorf("OneTime() = %v for index %d", back.OneTime(), index)
			}
		}
	}
}

func TestParseTokenRejectsMalformed(t *testing.T) {
	tk, err := SignToken(testKey, MethodType, testExpire, 5, testBinding(nil))
	if err != nil {
		t.Fatal(err)
	}
	good := tk.Encode()

	short := good[:80]
	if _, err := ParseToken(short); err == nil {
		t.Error("short token accepted")
	}

	badType := append([]byte(nil), good...)
	badType[0] = 99
	if _, err := ParseToken(badType); err == nil {
		t.Error("unknown type accepted")
	}

	// Non-canonical negative index (mixed ff/00).
	badIdx := append([]byte(nil), good...)
	badIdx[5] = 0xff
	badIdx[6] = 0x00
	if _, err := ParseToken(badIdx); err == nil {
		t.Error("non-canonical negative index accepted")
	}

	// Index exceeding int64.
	bigIdx := append([]byte(nil), good...)
	for i := 5; i < 21; i++ {
		bigIdx[i] = 0x7f
	}
	if _, err := ParseToken(bigIdx); err == nil {
		t.Error("oversized index accepted")
	}

	// Recovery id 27/28: secp256k1's other spelling of 0/1.
	wireV := append([]byte(nil), good...)
	wireV[TokenLength-1] += 27
	if _, err := ParseToken(wireV); err == nil {
		t.Error("recovery id 27/28 accepted")
	}
}

func TestSignatureBindingPerType(t *testing.T) {
	tsAddr := testKey.Address()
	data := []byte{0xaa, 0xbb, 0xcc, 0xdd, 1, 2, 3}
	b := testBinding(data)

	super, _ := SignToken(testKey, SuperType, testExpire, NotOneTime, b)
	method, _ := SignToken(testKey, MethodType, testExpire, NotOneTime, b)
	argument, _ := SignToken(testKey, ArgumentType, testExpire, NotOneTime, b)

	otherMethod := b
	otherMethod.Selector = abi.SelectorFor("drain()")
	otherData := b
	otherData.Data = []byte{9, 9, 9, 9}
	otherOrigin := b
	otherOrigin.Origin = types.Address{0x99}
	otherContract := b
	otherContract.Contract = types.Address{0x98}

	tests := []struct {
		name    string
		tk      Token
		binding Binding
		wantOK  bool
	}{
		{"super valid", super, b, true},
		{"super ignores method", super, otherMethod, true},
		{"super ignores data", super, otherData, true},
		{"super rejects origin swap", super, otherOrigin, false},
		{"super rejects contract swap", super, otherContract, false},
		{"method valid", method, b, true},
		{"method ignores data", method, otherData, true},
		{"method rejects method swap", method, otherMethod, false},
		{"method rejects origin swap", method, otherOrigin, false},
		{"argument valid", argument, b, true},
		{"argument rejects data swap", argument, otherData, false},
		{"argument rejects method swap", argument, otherMethod, false},
		{"argument rejects origin swap", argument, otherOrigin, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.tk.VerifySignature(tsAddr, tt.binding)
			if (err == nil) != tt.wantOK {
				t.Errorf("VerifySignature = %v, wantOK %v", err, tt.wantOK)
			}
		})
	}
}

func TestSignatureRejectsWrongTS(t *testing.T) {
	b := testBinding(nil)
	tk, _ := SignToken(testKey, SuperType, testExpire, NotOneTime, b)
	otherTS := secp256k1.PrivateKeyFromSeed([]byte("rogue ts"))
	if err := tk.VerifySignature(otherTS.Address(), b); err == nil {
		t.Error("token accepted under wrong TS address")
	}
}

func TestTokenArrayForCallChain(t *testing.T) {
	// § IV-D: SCA:tkA ‖ SCB:tkB ‖ SCC:tkC.
	addrs := []types.Address{{0xa1}, {0xa2}, {0xa3}}
	var arr [][]byte
	var toks []Token
	for i, a := range addrs {
		tk, err := SignToken(testKey, MethodType, testExpire, int64(i), Binding{Origin: testClient, Contract: a})
		if err != nil {
			t.Fatal(err)
		}
		toks = append(toks, tk)
		arr = append(arr, EncodeEntry(a, tk))
	}
	for i, a := range addrs {
		got, err := TokenFor(arr, a)
		if err != nil {
			t.Fatalf("TokenFor(%s): %v", a, err)
		}
		if got.Index != toks[i].Index {
			t.Errorf("wrong token for %s: index %d", a, got.Index)
		}
	}
	// Scanned count drives Parse gas: the third contract scans 3 entries.
	_, scanned, err := EntryFor(arr, addrs[2])
	if err != nil || scanned != 3 {
		t.Errorf("scanned = %d (%v), want 3", scanned, err)
	}
	// Missing contract.
	if _, err := TokenFor(arr, types.Address{0xEE}); err == nil {
		t.Error("token found for absent contract")
	}
	// Malformed entry length.
	bad := [][]byte{{1, 2, 3}}
	if _, _, err := EntryFor(bad, addrs[0]); err == nil {
		t.Error("malformed entry accepted")
	}
}

func TestQuickTokenRoundTrip(t *testing.T) {
	f := func(idxRaw uint32, tpRaw uint8) bool {
		tp := TokenType(tpRaw%3 + 1)
		index := int64(idxRaw)
		tk, err := SignToken(testKey, tp, testExpire, index, testBinding([]byte{byte(idxRaw)}))
		if err != nil {
			return false
		}
		back, err := ParseToken(tk.Encode())
		return err == nil && back.Type == tp && back.Index == index
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// FuzzParseToken feeds arbitrary bytes through the token decoders, as a
// token, as an index field and as a token array. Nothing may panic, and
// everything accepted re-encodes to the bytes it was parsed from.
func FuzzParseToken(f *testing.F) {
	for _, index := range []int64{5, NotOneTime} {
		tk, err := SignToken(testKey, ArgumentType, testExpire, index, testBinding([]byte{1}))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tk.Encode())
		f.Add(EncodeEntry(testTarget, tk))
	}
	wireV, _ := SignToken(testKey, SuperType, testExpire, 0, testBinding(nil))
	wireV.Signature.V += 27
	f.Add(wireV.Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		tk, err := ParseToken(b)
		switch {
		case err == nil && !bytes.Equal(tk.Encode(), b):
			t.Fatalf("token re-encodes to %x, parsed from %x", tk.Encode(), b)
		case err != nil && !errors.Is(err, ErrMalformedToken):
			t.Fatalf("ParseToken error %v is not ErrMalformedToken", err)
		}

		if len(b) >= 16 {
			if index, err := decodeIndex(b[:16]); err == nil {
				var field [16]byte
				encodeIndex(field[:], index)
				if !bytes.Equal(field[:], b[:16]) {
					t.Fatalf("index %d re-encodes to %x, decoded from %x", index, field, b[:16])
				}
			}
		}

		// The same bytes as a token array of EntryLength entries (the last
		// one possibly short), searched for the first entry's tag.
		var tokens [][]byte
		for rest := b; len(rest) > 0; {
			n := min(EntryLength, len(rest))
			tokens, rest = append(tokens, rest[:n]), rest[n:]
		}
		var contract types.Address
		copy(contract[:], b)
		raw, scanned, err := EntryFor(tokens, contract)
		if scanned > len(tokens) {
			t.Fatalf("scanned %d of %d entries", scanned, len(tokens))
		}
		if err == nil && (len(raw) != TokenLength || !bytes.Equal(tokens[scanned-1], append(contract.Bytes(), raw...))) {
			t.Fatalf("entry %d does not hold the token for %s", scanned-1, contract)
		}
		viaArray, err2 := TokenFor(tokens, contract)
		if err != nil {
			if err2 == nil {
				t.Fatal("TokenFor found a token EntryFor did not")
			}
			return
		}
		direct, err3 := ParseToken(raw)
		if (err2 == nil) != (err3 == nil) || (err2 == nil && !bytes.Equal(viaArray.Encode(), direct.Encode())) {
			t.Fatalf("TokenFor = %v, %v; ParseToken of its entry = %v, %v", viaArray, err2, direct, err3)
		}
	})
}

func TestSigningDataLayout(t *testing.T) {
	b := testBinding([]byte{1, 2, 3})
	super := SigningData(SuperType, testExpire, 7, b)
	if len(super) != 61 {
		t.Errorf("super signing data = %d bytes, want 61 (1+4+16+20+20)", len(super))
	}
	method := SigningData(MethodType, testExpire, 7, b)
	if len(method) != 65 {
		t.Errorf("method signing data = %d bytes, want 65", len(method))
	}
	arg := SigningData(ArgumentType, testExpire, 7, b)
	if len(arg) != 65+3 {
		t.Errorf("argument signing data = %d bytes, want 68", len(arg))
	}
	if !bytes.Equal(method[:61], super) {
		// The first 61 bytes only differ in the type byte.
		if !bytes.Equal(method[1:61], super[1:]) {
			t.Error("common prefix differs beyond the type byte")
		}
	}
}
