package ltr

import (
	"bytes"
	"errors"
	"testing"
)

func TestModelSerializationRoundTrip(t *testing.T) {
	m := &LinearModel{W: []float64{0.5, -1.25, 3}, B: 0.75}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.B != m.B || len(got.W) != 3 {
		t.Fatalf("round trip lost state: %+v", got)
	}
	for i := range m.W {
		if got.W[i] != m.W[i] {
			t.Fatalf("weight %d differs", i)
		}
	}
}

func TestReadModelCorrupt(t *testing.T) {
	m := &LinearModel{W: []float64{1, 2}, B: 3}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	cases := [][]byte{
		nil,
		data[:3],
		data[:len(data)-4],
		func() []byte { d := append([]byte{}, data...); d[0] ^= 1; return d }(),
	}
	for i, d := range cases {
		if _, err := ReadModel(bytes.NewReader(d)); !errors.Is(err, ErrCorruptModel) {
			t.Fatalf("case %d: want ErrCorruptModel, got %v", i, err)
		}
	}
}
