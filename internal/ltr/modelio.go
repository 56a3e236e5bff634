package ltr

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// modelMagic guards serialized models.
const modelMagic = uint32(0x4C4D4431) // "LMD1"

// ErrCorruptModel marks unreadable persisted models.
var ErrCorruptModel = errors.New("ltr: corrupt serialized model")

// WriteTo serializes the model (dimension, weights, bias).
func (m *LinearModel) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(modelMagic); err != nil {
		return n, err
	}
	if err := write(uint64(len(m.W))); err != nil {
		return n, err
	}
	if err := write(m.W); err != nil {
		return n, err
	}
	if err := write(m.B); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// ReadModel reconstructs a model serialized with WriteTo. It reads
// exactly the model's bytes, so other payloads may follow in the same
// stream (the trained-model bundle relies on this).
func ReadModel(r io.Reader) (*LinearModel, error) {
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil || magic != modelMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptModel)
	}
	var dim uint64
	if err := binary.Read(r, binary.LittleEndian, &dim); err != nil || dim > 1<<20 {
		return nil, fmt.Errorf("%w: implausible dimension", ErrCorruptModel)
	}
	m := NewLinearModel(int(dim))
	if err := binary.Read(r, binary.LittleEndian, &m.W); err != nil {
		return nil, fmt.Errorf("%w: truncated weights", ErrCorruptModel)
	}
	if err := binary.Read(r, binary.LittleEndian, &m.B); err != nil {
		return nil, fmt.Errorf("%w: truncated bias", ErrCorruptModel)
	}
	return m, nil
}
