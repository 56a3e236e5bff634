// Package ssebaseline implements a searchable-symmetric-encryption (SSE)
// inverted index in the style of Curtmola et al. — the encryption-based
// alternative the paper's related-work section argues against:
// "the prevailing encryption-based methods can be very low in efficiency
// [and flexibility]" for federated LTR.
//
// Construction (single-keyword SSE with deterministic search tokens):
//
//   - For each term t, the index key is HMAC-SHA256(K_token, t) — the
//     server can match tokens but learns nothing about the underlying
//     term beyond repetition patterns (standard SSE leakage).
//   - The posting list (docID, count pairs) of each term is encrypted
//     with AES-CTR under a per-term key derived from K_enc, so the
//     server cannot read memberships without a query.
//   - A search is: querier derives the token, server returns the
//     encrypted posting list, querier decrypts.
//
// The package exists as a *comparator*: expbench's sse experiment
// measures build time, index size, per-query latency and — the decisive
// axis — what it cannot do: answering a reverse top-K requires shipping
// the full posting list per term (traffic proportional to document
// frequency), supports no merging across owners, and every index is
// bound to one key holder. Tests pin the functional behaviour;
// bench_test.go compares it against the sketch pipeline.
package ssebaseline

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Errors returned by this package.
var (
	ErrBadKey      = errors.New("ssebaseline: key must be at least 16 bytes")
	ErrSealed      = errors.New("ssebaseline: index is sealed; no further updates")
	ErrNotSealed   = errors.New("ssebaseline: index must be sealed before searching")
	ErrBadPayload  = errors.New("ssebaseline: malformed encrypted posting list")
	ErrUnknownTerm = errors.New("ssebaseline: no posting list for token")
)

// Posting is one decrypted posting-list entry.
type Posting struct {
	DocID int32
	Count int32
}

// Token is the deterministic search token for one term.
type Token [32]byte

// Client holds the secret keys; it can build indexes and issue queries.
type Client struct {
	tokenKey []byte
	encKey   []byte
}

// NewClient derives the token and encryption keys from a master secret.
func NewClient(masterKey []byte) (*Client, error) {
	if len(masterKey) < 16 {
		return nil, ErrBadKey
	}
	return &Client{
		tokenKey: deriveKey(masterKey, "sse/token"),
		encKey:   deriveKey(masterKey, "sse/enc"),
	}, nil
}

// deriveKey computes HMAC-SHA256(master, label).
func deriveKey(master []byte, label string) []byte {
	h := hmac.New(sha256.New, master)
	h.Write([]byte(label))
	return h.Sum(nil)
}

// TokenFor computes the search token of a term.
func (c *Client) TokenFor(term uint64) Token {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], term)
	h := hmac.New(sha256.New, c.tokenKey)
	h.Write(buf[:])
	var t Token
	copy(t[:], h.Sum(nil))
	return t
}

// termCipher builds the AES-CTR stream for one term's posting list.
func (c *Client) termCipher(token Token) (cipher.Stream, error) {
	key := deriveKey(c.encKey, string(token[:16]))
	block, err := aes.NewCipher(key[:32])
	if err != nil {
		return nil, fmt.Errorf("ssebaseline: cipher init: %w", err)
	}
	iv := make([]byte, block.BlockSize())
	copy(iv, token[16:])
	return cipher.NewCTR(block, iv), nil
}

// Index is the server-side encrypted index: token -> encrypted posting
// list. Building happens client-side; the sealed structure is what the
// untrusted server stores.
type Index struct {
	lists   map[Token][]byte
	pending map[uint64][]Posting
	client  *Client
	sealed  bool
}

// NewIndex starts an index build under a client's keys.
func NewIndex(c *Client) *Index {
	return &Index{
		lists:   make(map[Token][]byte),
		pending: make(map[uint64][]Posting),
		client:  c,
	}
}

// AddDocument records a document's term counts into the pending build.
func (ix *Index) AddDocument(docID int, counts map[uint64]int64) error {
	if ix.sealed {
		return ErrSealed
	}
	for term, cnt := range counts {
		ix.pending[term] = append(ix.pending[term], Posting{DocID: int32(docID), Count: int32(cnt)})
	}
	return nil
}

// Seal encrypts every posting list and discards the plaintext. After
// sealing, the index answers token queries only — this is exactly the
// inflexibility the paper highlights: adding documents requires a
// rebuild (or a fresh sub-index per epoch).
func (ix *Index) Seal() error {
	if ix.sealed {
		return ErrSealed
	}
	for term, list := range ix.pending {
		sort.Slice(list, func(i, j int) bool { return list[i].DocID < list[j].DocID })
		plain := make([]byte, 8*len(list))
		for i, p := range list {
			binary.LittleEndian.PutUint32(plain[8*i:], uint32(p.DocID))
			binary.LittleEndian.PutUint32(plain[8*i+4:], uint32(p.Count))
		}
		token := ix.client.TokenFor(term)
		stream, err := ix.client.termCipher(token)
		if err != nil {
			return err
		}
		ct := make([]byte, len(plain))
		stream.XORKeyStream(ct, plain)
		ix.lists[token] = ct
	}
	ix.pending = nil
	ix.sealed = true
	return nil
}

// Lookup is the server-side operation: return the encrypted posting list
// for a token.
func (ix *Index) Lookup(token Token) ([]byte, error) {
	if !ix.sealed {
		return nil, ErrNotSealed
	}
	ct, ok := ix.lists[token]
	if !ok {
		return nil, ErrUnknownTerm
	}
	out := make([]byte, len(ct))
	copy(out, ct)
	return out, nil
}

// SizeBytes returns the server-side storage footprint.
func (ix *Index) SizeBytes() int64 {
	var n int64
	for _, ct := range ix.lists {
		n += int64(len(ct)) + 32
	}
	return n
}

// Decrypt recovers a posting list from a Lookup payload.
func (c *Client) Decrypt(token Token, payload []byte) ([]Posting, error) {
	if len(payload)%8 != 0 {
		return nil, ErrBadPayload
	}
	stream, err := c.termCipher(token)
	if err != nil {
		return nil, err
	}
	plain := make([]byte, len(payload))
	stream.XORKeyStream(plain, payload)
	out := make([]Posting, len(payload)/8)
	for i := range out {
		out[i] = Posting{
			DocID: int32(binary.LittleEndian.Uint32(plain[8*i:])),
			Count: int32(binary.LittleEndian.Uint32(plain[8*i+4:])),
		}
	}
	return out, nil
}

// ReverseTopK answers the paper's reverse top-K query through the SSE
// index: fetch and decrypt the term's full posting list, then rank.
// Note what this costs relative to the RTK-Sketch: traffic and
// decryption work proportional to the term's document frequency, and
// the querier must hold the index keys — no symmetric two-sided privacy.
func (c *Client) ReverseTopK(ix *Index, term uint64, k int) ([]Posting, int64, error) {
	token := c.TokenFor(term)
	payload, err := ix.Lookup(token)
	if err != nil {
		if errors.Is(err, ErrUnknownTerm) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	traffic := int64(len(payload)) + int64(len(token))
	list, err := c.Decrypt(token, payload)
	if err != nil {
		return nil, traffic, err
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].Count != list[j].Count {
			return list[i].Count > list[j].Count
		}
		return list[i].DocID < list[j].DocID
	})
	if k > 0 && len(list) > k {
		list = list[:k]
	}
	return list, traffic, nil
}
