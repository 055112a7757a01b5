package crypt

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// TestXORKeyStreamMatchesStdlibDirectly cross-checks our CTR construction
// against a from-first-principles use of crypto/aes + crypto/cipher, so a
// refactor cannot silently change the keystream layout (which would break
// interop between nodes built from different revisions).
func TestXORKeyStreamMatchesStdlibDirectly(t *testing.T) {
	f := func(keyRaw [KeySize]byte, nonce uint64, pt []byte) bool {
		k := Key(keyRaw)
		got := make([]byte, len(pt))
		XORKeyStream(k, nonce, got, pt)

		block, err := aes.NewCipher(k[:])
		if err != nil {
			return false
		}
		var iv [aes.BlockSize]byte
		binary.BigEndian.PutUint64(iv[:8], nonce)
		want := make([]byte, len(pt))
		cipher.NewCTR(block, iv[:]).XORKeyStream(want, pt)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPRFKnownAnswers pins PRF and DeriveKey to HMAC-SHA256 values
// computed by an independent implementation (Python's hmac module), at
// the edges of the one-block fast path: empty, exactly one block (64
// bytes) and one byte over it.
func TestPRFKnownAnswers(t *testing.T) {
	seq := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"empty", func() []byte { o := PRF(testKey(43)); return o[:] }(),
			"dbeca2f17a72499acefaed406b45aee7806fb3377cd809bf3b72a2b880f5fb69"},
		{"64B", func() []byte { o := PRF(testKey(43), seq(64)); return o[:] }(),
			"b130c5abbf10898fbbc3957d0f370be6831fa41f5b0176df87bfd83dcf0fa7a1"},
		{"65B", func() []byte { o := PRF(testKey(43), seq(65)); return o[:] }(),
			"2058891e30e4e5835feafeae8c534dcb46aeccdab2c4a0ba2f5b42790a890778"},
		{"DeriveID", func() []byte { k := DeriveID(testKey(41), LabelCluster, 7); return k[:] }(),
			"31bb6fe90ddc932883af0c3fb8b92894"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestPRFIsHMACSHA256 pins PRF and DeriveKey to HMAC-SHA256 exactly,
// cross-checked against crypto/hmac for every input length from 0 to
// 200 bytes, split into parts at random points, so both the one-block
// fast path and the long path are exercised on each side of the 64-byte
// boundary.
func TestPRFIsHMACSHA256(t *testing.T) {
	f := func(keyRaw [KeySize]byte, label byte, data [200]byte, cut1, cut2 uint8) bool {
		k := Key(keyRaw)
		for n := 0; n <= len(data); n++ {
			msg := data[:n]
			a, b := int(cut1)%(n+1), int(cut2)%(n+1)
			if a > b {
				a, b = b, a
			}
			mac := hmac.New(sha256.New, k[:])
			mac.Write(msg)
			want := mac.Sum(nil)
			got := PRF(k, msg[:a], msg[a:b], msg[b:])
			if !bytes.Equal(got[:], want) {
				return false
			}
			mac = hmac.New(sha256.New, k[:])
			mac.Write([]byte{label})
			mac.Write(msg)
			dk := DeriveKey(k, label, msg[:a], msg[a:])
			if !bytes.Equal(dk[:], mac.Sum(nil)[:KeySize]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPRFAllocFree: key derivation and MACs over one-block inputs — all
// the protocol computes — must not allocate.
func TestPRFAllocFree(t *testing.T) {
	k := testKey(45)
	ctx := []byte{0, 0, 0, 9}
	msg := make([]byte, 64)
	if n := testing.AllocsPerRun(200, func() { _ = DeriveKey(k, LabelMAC) }); n != 0 {
		t.Errorf("DeriveKey allocates %v/op; want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = DeriveID(k, LabelCluster, 9) }); n != 0 {
		t.Errorf("DeriveID allocates %v/op; want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = PRF(k, ctx, msg[4:]) }); n != 0 {
		t.Errorf("PRF allocates %v/op; want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = MAC(k, ctx, msg[:32]) }); n != 0 {
		t.Errorf("MAC allocates %v/op; want 0", n)
	}
}

// TestHashForwardIsTruncatedSHA256 pins the chain step.
func TestHashForwardIsTruncatedSHA256(t *testing.T) {
	k := testKey(33)
	want := sha256.Sum256(k[:])
	got := HashForward(k)
	if !bytes.Equal(got[:], want[:KeySize]) {
		t.Fatal("HashForward deviates from truncated SHA-256")
	}
}

// TestSealDomainSeparation: the same plaintext sealed under related but
// distinct key/nonce/aad contexts must never collide.
func TestSealDomainSeparation(t *testing.T) {
	pt := []byte("constant plaintext")
	base := Seal(testKey(35), 1, []byte("aad"), pt)
	variants := [][]byte{
		Seal(testKey(36), 1, []byte("aad"), pt),  // different key
		Seal(testKey(35), 2, []byte("aad"), pt),  // different nonce
		Seal(testKey(35), 1, []byte("aadX"), pt), // different aad (tag differs)
	}
	for i, v := range variants {
		if bytes.Equal(base, v) {
			t.Fatalf("variant %d collides with base sealing", i)
		}
	}
}

// TestOpenLengthOracleAbsent: Open must reject any truncation or
// extension of a valid sealing, at every length.
func TestOpenLengthOracleAbsent(t *testing.T) {
	k := testKey(37)
	sealed := Seal(k, 9, nil, []byte("0123456789"))
	for l := 0; l < len(sealed); l++ {
		if _, ok := Open(k, 9, nil, sealed[:l]); ok {
			t.Fatalf("truncation to %d accepted", l)
		}
	}
	if _, ok := Open(k, 9, nil, append(append([]byte(nil), sealed...), 0)); ok {
		t.Fatal("extension accepted")
	}
}

// TestChainCommitmentsUnique: over a long chain, all values must be
// distinct (a cycle would let replays verify).
func TestChainCommitmentsUnique(t *testing.T) {
	c := NewChain(testKey(39), 512)
	seen := make(map[Key]int, 513)
	seen[c.Commitment()] = 0
	for l := 1; l <= c.Len(); l++ {
		k, err := c.Reveal(l)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("chain values %d and %d collide", prev, l)
		}
		seen[k] = l
	}
}
