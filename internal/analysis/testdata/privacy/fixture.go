// Package privacyfix exercises the privacyboundary analyzer: marked
// types flowing into wire structs, marshal paths, and format calls.
package privacyfix

import (
	"encoding/json"
	"fmt"

	"csfltr/internal/telemetry"
	"csfltr/internal/wire"
)

// TermVector is a stand-in for the raw term-count vector.
//
//csfltr:private
type TermVector map[uint64]int

// PrivateKey is a stand-in DH private key.
//
//csfltr:private
type PrivateKey struct{ X int }

// SketchPayload carries only derived values and may cross the wire.
type SketchPayload struct {
	Cols []uint32 `json:"cols"`
}

// LeakyArgs is a wire struct (by the *Args naming convention) carrying
// raw counts.
type LeakyArgs struct {
	Counts TermVector // want "wire struct LeakyArgs carries silo-private data"
}

// LeakyMessage is a wire struct (by json tags) embedding a private key.
type LeakyMessage struct {
	Key  *PrivateKey `json:"key"` // want "wire struct LeakyMessage carries silo-private data"
	Name string      `json:"name"`
}

// CleanArgs carries derived values only: no diagnostic.
type CleanArgs struct {
	Payload SketchPayload
}

// Holder embeds a private type one structural level down.
type Holder struct{ tv TermVector }

func sinks(tv TermVector, pk *PrivateKey, h Holder, p SketchPayload) {
	fmt.Println(tv)         // want "passed to format call"
	fmt.Printf("%v\n", pk)  // want "passed to format call"
	fmt.Print(h)            // want "passed to format call"
	_, _ = json.Marshal(tv) // want "passed to marshal call"
	fmt.Println(len(tv))    // ok: an int, not the vector itself
	_, _ = json.Marshal(p)  // ok: derived payload
	fmt.Println(pk.X == 0)  // ok: a bool
	_, _ = json.Marshal(&p) // ok: pointer to derived payload
}

func allowed(tv TermVector) {
	//csfltr:allow privacyboundary -- fixture: suppression must silence the finding below
	fmt.Println(tv)
}

// LeakyCacheEntry is a wire struct (by json tags) keying a cache on the
// raw term vector — the shape the answer cache must never take.
type LeakyCacheEntry struct {
	Terms TermVector `json:"terms"` // want "wire struct LeakyCacheEntry carries silo-private data"
	Docs  []uint64   `json:"docs"`
}

// CacheEntryMessage is the sound shape: entries are addressed by a
// fixed-width keyed hash and carry derived values only.
type CacheEntryMessage struct {
	Key        [16]byte `json:"key"`
	Generation uint64   `json:"generation"`
	Docs       []uint64 `json:"docs"`
}

func cacheSinks(tv TermVector, m CacheEntryMessage) {
	_, _ = json.Marshal(m)     // ok: hashed key + derived docs
	fmt.Println(m.Key)         // ok: the hash is not private
	_, _ = json.Marshal(tv)    // want "passed to marshal call"
	fmt.Printf("key=%x\n", tv) // want "passed to format call"
}

// RawQuery is a stand-in for a raw (unhashed) query term string.
//
//csfltr:private
type RawQuery string

// traceAttrs exercises the flight-recorder boundary: span attributes are
// exported over /v1/trace and in Chrome dumps, so only keyed hashes and
// derived values may become attribute values — never a private value,
// whether passed directly or laundered through fmt.
func traceAttrs(tv TermVector, rq RawQuery, termHash string) {
	_ = telemetry.AStr("term", termHash)           // ok: keyed hash
	_ = telemetry.AInt("terms", int64(len(tv)))    // ok: a count, not the vector
	_ = telemetry.AStr("query", string(rq))        // want "passed to trace attribute"
	_ = telemetry.AStr("terms", fmt.Sprint(tv))    // want "passed to format call"
	_ = telemetry.AStr("q", fmt.Sprintf("%s", rq)) // want "passed to format call"
}

// LeakyAuditRow is an audit-ledger row shape (wire struct by json tags)
// carrying the raw query — the shape AuditParty/AuditRecord must never
// take.
type LeakyAuditRow struct {
	Query   RawQuery `json:"query"` // want "wire struct LeakyAuditRow carries silo-private data"
	Epsilon float64  `json:"epsilon"`
}

// CleanAuditRow is the sound audit row: keyed term hash plus derived
// accounting values only.
type CleanAuditRow struct {
	Term    string  `json:"term"` // keyed hash, not the raw term
	Queries int     `json:"queries"`
	Epsilon float64 `json:"epsilon"`
}

// RawWeights is a stand-in for a model fitted to raw documents, before
// any aggregation.
//
//csfltr:private
type RawWeights []float64

// RawFrame is a stand-in for a serialized private blob.
//
//csfltr:private
type RawFrame []byte

// wireSinks exercises the binary codec boundary: the wire package's
// encoders put their arguments on the federation wire, so only released
// models, obfuscated columns and DP-noised values may reach them — never
// a marked raw value.
func wireSinks(raw RawWeights, frame RawFrame, released []float64, payload []byte) {
	_ = wire.AppendModel(nil, raw, 0)             // want "passed to wire encode"
	_ = wire.Pack(nil, frame)                     // want "passed to wire encode"
	_ = wire.AppendModel(nil, released, 0)        // ok: a released model
	_ = wire.Pack(nil, payload)                   // ok: derived payload
	_ = wire.AppendUvarint(nil, uint64(len(raw))) // ok: a count, not the weights
}

// RawModelUpdate is a stand-in for a party's plaintext model update —
// the vector secure training must never put on the wire unmasked.
//
//csfltr:private
type RawModelUpdate []float64

// maskUpdate stands in for the secagg quantize-and-mask pipeline: its
// result is ring-masked material that is uniform to the server, so it
// may cross the wire.
//
//csfltr:sanitizes
func maskUpdate(u RawModelUpdate) []uint64 {
	out := make([]uint64, len(u))
	for i, v := range u {
		out[i] = uint64(int64(v)) ^ 0x9e3779b97f4a7c15
	}
	return out
}

// LeakyUpdateMsg is a wire struct carrying the plaintext update — the
// shape a secure-aggregation submission must never take.
type LeakyUpdateMsg struct {
	Update RawModelUpdate `json:"update"` // want "wire struct LeakyUpdateMsg carries silo-private data"
	Round  uint64         `json:"round"`
}

// MaskedUpdateMsg is the sound submission shape: masked ring words only.
type MaskedUpdateMsg struct {
	Vec   []uint64 `json:"vec"`
	Round uint64   `json:"round"`
}

func secaggSinks(raw RawModelUpdate) {
	_, _ = json.Marshal(raw)                                    // want "passed to marshal call"
	_ = wire.AppendModel(nil, raw, 0)                           // want "passed to wire encode"
	masked := maskUpdate(raw)                                   // sanitizer stops the taint
	_, _ = json.Marshal(MaskedUpdateMsg{Vec: masked, Round: 1}) // ok: masked material
	_ = wire.AppendUvarint(nil, uint64(len(raw)))               // ok: a count, not the update
}
