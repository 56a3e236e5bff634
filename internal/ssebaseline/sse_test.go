package ssebaseline

import (
	"bytes"
	"errors"
	"testing"
)

func key() []byte { return bytes.Repeat([]byte{7}, 32) }

func builtIndex(t *testing.T) (*Client, *Index) {
	t.Helper()
	c, err := NewClient(key())
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(c)
	docs := map[int]map[uint64]int64{
		0: {10: 3, 20: 1},
		1: {10: 7, 30: 2},
		2: {20: 5},
	}
	for id, counts := range docs {
		if err := ix.AddDocument(id, counts); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Seal(); err != nil {
		t.Fatal(err)
	}
	return c, ix
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient([]byte("short")); !errors.Is(err, ErrBadKey) {
		t.Fatal("short key should be rejected")
	}
	if _, err := NewClient(key()); err != nil {
		t.Fatal(err)
	}
}

func TestSearchRoundTrip(t *testing.T) {
	c, ix := builtIndex(t)
	token := c.TokenFor(10)
	payload, err := ix.Lookup(token)
	if err != nil {
		t.Fatal(err)
	}
	list, err := c.Decrypt(token, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].DocID != 0 || list[0].Count != 3 || list[1].DocID != 1 || list[1].Count != 7 {
		t.Fatalf("term 10 decrypts to %v", list)
	}
	if _, err := ix.Lookup(c.TokenFor(999)); !errors.Is(err, ErrUnknownTerm) {
		t.Fatal("absent term should report ErrUnknownTerm")
	}
}

func TestTokensAreDeterministicAndKeyed(t *testing.T) {
	c1, _ := NewClient(key())
	c2, _ := NewClient(key())
	other, _ := NewClient(bytes.Repeat([]byte{9}, 32))
	if c1.TokenFor(42) != c2.TokenFor(42) {
		t.Fatal("tokens must be deterministic per key")
	}
	if c1.TokenFor(42) == other.TokenFor(42) {
		t.Fatal("different keys must give different tokens")
	}
	if c1.TokenFor(42) == c1.TokenFor(43) {
		t.Fatal("different terms must give different tokens")
	}
}

func TestServerSeesOnlyCiphertext(t *testing.T) {
	c, ix := builtIndex(t)
	token := c.TokenFor(10)
	payload, err := ix.Lookup(token)
	if err != nil {
		t.Fatal(err)
	}
	// Plaintext would contain docID 0 and count 3 as little-endian
	// uint32s back to back; the ciphertext must not.
	plainPrefix := []byte{0, 0, 0, 0, 3, 0, 0, 0}
	if bytes.Contains(payload, plainPrefix) {
		t.Fatal("posting list stored in the clear")
	}
	// And decryption with the wrong client must NOT yield the plaintext.
	wrong, _ := NewClient(bytes.Repeat([]byte{9}, 32))
	garbled, err := wrong.Decrypt(token, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(garbled) == 2 && garbled[0].DocID == 0 && garbled[0].Count == 3 {
		t.Fatal("wrong key decrypted the posting list")
	}
}

func TestSealSemantics(t *testing.T) {
	c, _ := NewClient(key())
	ix := NewIndex(c)
	if err := ix.AddDocument(0, map[uint64]int64{1: 1}); err != nil {
		t.Fatal(err)
	}
	// Search before seal: refused.
	if _, err := ix.Lookup(c.TokenFor(1)); !errors.Is(err, ErrNotSealed) {
		t.Fatal("lookup before seal should be refused")
	}
	if err := ix.Seal(); err != nil {
		t.Fatal(err)
	}
	// The paper's flexibility point: no updates after sealing.
	if err := ix.AddDocument(1, map[uint64]int64{1: 1}); !errors.Is(err, ErrSealed) {
		t.Fatal("post-seal update should be refused")
	}
	if err := ix.Seal(); !errors.Is(err, ErrSealed) {
		t.Fatal("double seal should be refused")
	}
	// One term holding one 8-byte posting, plus 32 bytes of overhead.
	if got := ix.SizeBytes(); got != 8+32 {
		t.Fatalf("index footprint %d bytes, want 40", got)
	}
}

func TestReverseTopK(t *testing.T) {
	c, ix := builtIndex(t)
	top, traffic, err := c.ReverseTopK(ix, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].DocID != 1 || top[0].Count != 7 {
		t.Fatalf("ReverseTopK = %v", top)
	}
	// Traffic = full posting list (2 entries x 8 bytes) + token.
	if traffic != 16+32 {
		t.Fatalf("traffic = %d", traffic)
	}
	// Absent term: empty, no error.
	top, traffic, err = c.ReverseTopK(ix, 404, 5)
	if err != nil || len(top) != 0 || traffic != 0 {
		t.Fatalf("absent term: %v %d %v", top, traffic, err)
	}
}

func TestDecryptBadPayload(t *testing.T) {
	c, _ := NewClient(key())
	if _, err := c.Decrypt(c.TokenFor(1), []byte{1, 2, 3}); !errors.Is(err, ErrBadPayload) {
		t.Fatal("misaligned payload should error")
	}
}

// TestTrafficScalesWithDocFreq pins the comparator's weakness: reverse
// top-K traffic grows linearly with the number of matching documents,
// where the RTK-Sketch's is constant.
func TestTrafficScalesWithDocFreq(t *testing.T) {
	c, _ := NewClient(key())
	ix := NewIndex(c)
	const docs = 500
	for id := 0; id < docs; id++ {
		if err := ix.AddDocument(id, map[uint64]int64{7: int64(id%9 + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Seal(); err != nil {
		t.Fatal(err)
	}
	_, traffic, err := c.ReverseTopK(ix, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if traffic < 8*docs {
		t.Fatalf("traffic %d should carry the full %d-entry posting list", traffic, docs)
	}
}
