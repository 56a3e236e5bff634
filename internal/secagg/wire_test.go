package secagg

import (
	"bytes"
	"testing"

	"csfltr/internal/wire"
)

func TestMaskedUpdateRoundTrip(t *testing.T) {
	in := &MaskedUpdate{Round: 300, Party: 2, Vec: []uint64{0, 1, ^uint64(0), 0xdeadbeefcafef00d}}
	frame := in.Marshal(nil)
	out, err := UnmarshalMaskedUpdate(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out.Round != in.Round || out.Party != in.Party || len(out.Vec) != len(in.Vec) {
		t.Fatalf("header mismatch: %+v", out)
	}
	for i := range in.Vec {
		if out.Vec[i] != in.Vec[i] {
			t.Fatalf("word %d mismatch", i)
		}
	}
	// Empty vector round-trips too.
	empty := &MaskedUpdate{Round: 1, Party: 0}
	out, err = UnmarshalMaskedUpdate(empty.Marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Vec) != 0 {
		t.Fatalf("empty vector decoded as %d words", len(out.Vec))
	}
}

func TestSeedRevealRoundTrip(t *testing.T) {
	in := &SeedReveal{Round: 7, From: 3, Dropped: 1}
	for i := range in.Seed {
		in.Seed[i] = byte(i * 5)
	}
	frame := in.Marshal(nil)
	out, err := UnmarshalSeedReveal(frame)
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	good := (&MaskedUpdate{Round: 1, Party: 0, Vec: []uint64{1, 2}}).Marshal(nil)
	reveal := (&SeedReveal{Round: 1, From: 0, Dropped: 1}).Marshal(nil)
	cases := [][]byte{
		nil,
		{},
		{99},                         // bad version
		good[:len(good)-3],           // truncated vector
		reveal[:len(reveal)-1],       // truncated seed
		wire.Pack(nil, []byte{0x7f}), // unknown tag
		wire.Pack(nil, nil),          // empty payload
	}
	for i, c := range cases {
		if _, err := UnmarshalMaskedUpdate(c); err == nil {
			t.Fatalf("case %d: masked update decode should fail", i)
		}
		if _, err := UnmarshalSeedReveal(c); err == nil {
			t.Fatalf("case %d: seed reveal decode should fail", i)
		}
	}
	// Cross-type: a reveal frame is not a masked update and vice versa.
	if _, err := UnmarshalMaskedUpdate(reveal); err == nil {
		t.Fatal("reveal frame decoded as masked update")
	}
	if _, err := UnmarshalSeedReveal(good); err == nil {
		t.Fatal("masked update frame decoded as seed reveal")
	}
}

// FuzzSecAggDecode drives both decoders with arbitrary bytes: they must
// never panic, and anything they accept must re-encode canonically to
// an equivalent frame.
func FuzzSecAggDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add((&MaskedUpdate{Round: 3, Party: 1, Vec: []uint64{5, 6, 7}}).Marshal(nil))
	sr := &SeedReveal{Round: 2, From: 0, Dropped: 1}
	sr.Seed[0] = 0xAA
	f.Add(sr.Marshal(nil))
	f.Add(wire.Pack(nil, []byte{tagMaskedUpdate, 1, 0, 200}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if u, err := UnmarshalMaskedUpdate(data); err == nil {
			again, err := UnmarshalMaskedUpdate(u.Marshal(nil))
			if err != nil {
				t.Fatalf("re-encode of accepted update rejected: %v", err)
			}
			if again.Round != u.Round || again.Party != u.Party || len(again.Vec) != len(u.Vec) {
				t.Fatal("masked update not canonical under re-encode")
			}
		}
		if r, err := UnmarshalSeedReveal(data); err == nil {
			again, err := UnmarshalSeedReveal(r.Marshal(nil))
			if err != nil {
				t.Fatalf("re-encode of accepted reveal rejected: %v", err)
			}
			if *again != *r {
				t.Fatal("seed reveal not canonical under re-encode")
			}
		}
	})
}

func TestWireFrameCompatibility(t *testing.T) {
	// secagg frames are ordinary wire frames: Unpack must accept them.
	u := &MaskedUpdate{Round: 1, Party: 2, Vec: make([]uint64, 200)}
	frame := u.Marshal(nil)
	payload, err := wire.Unpack(frame)
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] != tagMaskedUpdate {
		t.Fatal("payload does not start with the masked-update tag")
	}
	// A 200-word all-zero vector compresses well below its raw size.
	if len(frame) >= 8*200 {
		t.Fatalf("compressible frame not compressed: %d bytes", len(frame))
	}
	if !bytes.Equal(payload[1:2], []byte{1}) { // round=1 uvarint
		t.Fatal("unexpected payload layout")
	}
}
