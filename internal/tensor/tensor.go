// Package tensor provides dense n-dimensional arrays used as the Data
// payload of DeepLens patches. Two element types are supported: uint8
// (raw pixel content) and float32 (featurized content). Tensors are
// row-major and carry their shape; all index arithmetic is bounds-checked
// in the accessors used by callers that handle untrusted shapes.
package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// DType identifies the element type of a Tensor.
type DType uint8

// Supported element types.
const (
	U8  DType = iota + 1 // unsigned 8-bit (pixels)
	F32                  // 32-bit float (features)
)

func (d DType) String() string {
	switch d {
	case U8:
		return "u8"
	case F32:
		return "f32"
	default:
		return fmt.Sprintf("dtype(%d)", uint8(d))
	}
}

// Tensor is a dense row-major n-dimensional array. Exactly one of U8s and
// F32s is non-nil, matching DType.
type Tensor struct {
	Shape []int
	DType DType
	U8s   []uint8
	F32s  []float32
}

// Numel returns the number of elements implied by shape.
func Numel(shape []int) int {
	n := 1
	for _, s := range shape {
		n *= s
	}
	return n
}

// NewU8 allocates a zeroed uint8 tensor with the given shape.
func NewU8(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), DType: U8, U8s: make([]uint8, Numel(shape))}
}

// NewF32 allocates a zeroed float32 tensor with the given shape.
func NewF32(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), DType: F32, F32s: make([]float32, Numel(shape))}
}

// FromF32 wraps data (not copied) in a tensor of the given shape.
func FromF32(data []float32, shape ...int) *Tensor {
	if len(data) != Numel(shape) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), DType: F32, F32s: data}
}

// FromU8 wraps data (not copied) in a tensor of the given shape.
func FromU8(data []uint8, shape ...int) *Tensor {
	if len(data) != Numel(shape) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), DType: U8, U8s: data}
}

// Numel returns the number of elements in t.
func (t *Tensor) Numel() int { return Numel(t.Shape) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{Shape: append([]int(nil), t.Shape...), DType: t.DType}
	if t.U8s != nil {
		c.U8s = append([]uint8(nil), t.U8s...)
	}
	if t.F32s != nil {
		c.F32s = append([]float32(nil), t.F32s...)
	}
	return c
}

// offset computes the linear offset of idx, panicking on rank mismatch or
// out-of-range coordinates.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// AtU8 returns the uint8 element at idx.
func (t *Tensor) AtU8(idx ...int) uint8 { return t.U8s[t.offset(idx)] }

// SetU8 stores v at idx.
func (t *Tensor) SetU8(v uint8, idx ...int) { t.U8s[t.offset(idx)] = v }

// AtF32 returns the float32 element at idx.
func (t *Tensor) AtF32(idx ...int) float32 { return t.F32s[t.offset(idx)] }

// SetF32 stores v at idx.
func (t *Tensor) SetF32(v float32, idx ...int) { t.F32s[t.offset(idx)] = v }

// ToF32 converts t to an F32 tensor with values in [0,1] when t is U8, or
// returns t unchanged when it is already F32.
func (t *Tensor) ToF32() *Tensor {
	if t.DType == F32 {
		return t
	}
	out := NewF32(t.Shape...)
	for i, v := range t.U8s {
		out.F32s[i] = float32(v) / 255
	}
	return out
}

// ToU8 converts t to a U8 tensor, clamping F32 values assumed in [0,1].
func (t *Tensor) ToU8() *Tensor {
	if t.DType == U8 {
		return t
	}
	out := NewU8(t.Shape...)
	for i, v := range t.F32s {
		x := v * 255
		if x < 0 {
			x = 0
		}
		if x > 255 {
			x = 255
		}
		out.U8s[i] = uint8(x + 0.5)
	}
	return out
}

// Equal reports whether a and b have identical shape, dtype and contents.
func Equal(a, b *Tensor) bool {
	if a.DType != b.DType || len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	switch a.DType {
	case U8:
		if len(a.U8s) != len(b.U8s) {
			return false
		}
		for i := range a.U8s {
			if a.U8s[i] != b.U8s[i] {
				return false
			}
		}
	case F32:
		if len(a.F32s) != len(b.F32s) {
			return false
		}
		for i := range a.F32s {
			if a.F32s[i] != b.F32s[i] {
				return false
			}
		}
	}
	return true
}

// L2 returns the Euclidean distance between two F32 tensors of equal length.
func L2(a, b *Tensor) float64 {
	if a.DType != F32 || b.DType != F32 || len(a.F32s) != len(b.F32s) {
		panic("tensor: L2 requires equal-length F32 tensors")
	}
	var s float64
	for i := range a.F32s {
		d := float64(a.F32s[i] - b.F32s[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// PSNR computes peak signal-to-noise ratio (dB) between two equal-shape U8
// tensors; +Inf when identical.
func PSNR(a, b *Tensor) float64 {
	if a.DType != U8 || b.DType != U8 || len(a.U8s) != len(b.U8s) || len(a.U8s) == 0 {
		panic("tensor: PSNR requires equal-length non-empty U8 tensors")
	}
	var se float64
	for i := range a.U8s {
		d := float64(int(a.U8s[i]) - int(b.U8s[i]))
		se += d * d
	}
	mse := se / float64(len(a.U8s))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

// Marshal serializes t to a compact binary form.
func (t *Tensor) Marshal() []byte {
	return t.AppendMarshal(make([]byte, 0, t.MarshalSize()))
}

// MarshalSize is the length of t's Marshal encoding.
func (t *Tensor) MarshalSize() int {
	n := 2 + 4*len(t.Shape)
	switch t.DType {
	case U8:
		n += len(t.U8s)
	case F32:
		n += 4 * len(t.F32s)
	}
	return n
}

// AppendMarshal appends t's Marshal encoding to buf.
func (t *Tensor) AppendMarshal(buf []byte) []byte {
	buf = append(buf, byte(t.DType), byte(len(t.Shape)))
	for _, s := range t.Shape {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s))
	}
	switch t.DType {
	case U8:
		buf = append(buf, t.U8s...)
	case F32:
		for _, v := range t.F32s {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	return buf
}

// ErrCorrupt is returned by Unmarshal on malformed input.
var ErrCorrupt = errors.New("tensor: corrupt serialized tensor")

// Unmarshal parses a tensor produced by Marshal.
func Unmarshal(buf []byte) (*Tensor, error) {
	if len(buf) < 2 {
		return nil, ErrCorrupt
	}
	dt := DType(buf[0])
	rank := int(buf[1])
	if dt != U8 && dt != F32 {
		return nil, ErrCorrupt
	}
	if len(buf) < 2+4*rank {
		return nil, ErrCorrupt
	}
	shape := make([]int, rank)
	off := 2
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(buf[off:]))
		if shape[i] < 0 {
			return nil, ErrCorrupt
		}
		off += 4
	}
	// Every element takes at least a byte, so an extent product past the
	// bytes that remain is corrupt; bounding it keeps it from overflowing.
	n := 1
	for _, d := range shape {
		if d != 0 && n > (len(buf)-off)/d {
			return nil, ErrCorrupt
		}
		n *= d
	}
	switch dt {
	case U8:
		if len(buf) != off+n {
			return nil, ErrCorrupt
		}
		return &Tensor{Shape: shape, DType: U8, U8s: append([]uint8(nil), buf[off:]...)}, nil
	default:
		if len(buf) != off+4*n {
			return nil, ErrCorrupt
		}
		data := make([]float32, n)
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
		return &Tensor{Shape: shape, DType: F32, F32s: data}, nil
	}
}
