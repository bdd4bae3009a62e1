package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

const (
	dlvMagic = 0x444C5631 // "DLV1"
	mbSize   = 16

	frameI = 1
	frameP = 2
)

// DefaultGOP is the default group-of-pictures length (one I-frame every
// DefaultGOP frames).
const DefaultGOP = 30

// skipThreshold returns the per-macroblock SAD below which a P-frame block
// is coded as a skip (copy of the reference). Lower quality tolerates more
// drift for fewer bits.
func skipThreshold(q Quality) int {
	switch {
	case q >= QualityHigh:
		return 2 * mbSize * mbSize
	case q >= QualityMedium:
		return 4 * mbSize * mbSize
	default:
		return 8 * mbSize * mbSize
	}
}

// sadGreen computes the sum of absolute differences on the green channel
// between cur's macroblock at (mx,my) and ref's at (mx+dx, my+dy), with
// edge clamping.
func sadGreen(cur, ref *Image, mx, my, dx, dy int) int {
	s := 0
	for y := 0; y < mbSize; y++ {
		for x := 0; x < mbSize; x++ {
			d := int(cur.At(mx+x, my+y, 1)) - int(ref.At(mx+x+dx, my+y+dy, 1))
			if d < 0 {
				d = -d
			}
			s += d
		}
	}
	return s
}

// motionSearch runs a three-step search (radius 4,2,1) for the best MV.
func motionSearch(cur, ref *Image, mx, my int) (bdx, bdy, bsad int) {
	bsad = sadGreen(cur, ref, mx, my, 0, 0)
	for _, step := range [...]int{4, 2, 1} {
		cdx, cdy := bdx, bdy
		for _, off := range [8][2]int{{-1, -1}, {0, -1}, {1, -1}, {-1, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}} {
			dx, dy := cdx+off[0]*step, cdy+off[1]*step
			if dx < -15 || dx > 15 || dy < -15 || dy > 15 {
				continue
			}
			if s := sadGreen(cur, ref, mx, my, dx, dy); s < bsad {
				bsad, bdx, bdy = s, dx, dy
			}
		}
	}
	return bdx, bdy, bsad
}

// encodeResidualBlock DCT-quantizes an 8x8 residual (already centered at 0).
func encodeResidualBlock(res *[64]float32, qt *[64]int, buf *bytes.Buffer) *[64]float32 {
	var out [64]float32
	fdct8(res, &out)
	var q [64]int32
	for i := 0; i < 64; i++ {
		v := out[i] / float32(qt[i])
		if v >= 0 {
			q[i] = int32(v + 0.5)
		} else {
			q[i] = int32(v - 0.5)
		}
	}
	encodeBlockRLE(buf, &q)
	// Return the dequantized residual so the encoder reconstructs exactly
	// what the decoder will see (no drift).
	var deq, rec [64]float32
	for i := 0; i < 64; i++ {
		deq[i] = float32(q[i]) * float32(qt[i])
	}
	idct8(&deq, &rec)
	return &rec
}

func decodeResidualBlock(r *bytes.Reader, qt *[64]int) (*[64]float32, error) {
	var q [64]int32
	if err := decodeBlockRLE(r, &q); err != nil {
		return nil, err
	}
	var deq, rec [64]float32
	for i := 0; i < 64; i++ {
		deq[i] = float32(q[i]) * float32(qt[i])
	}
	idct8(&deq, &rec)
	return &rec, nil
}

func clampU8(v float32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// DLVWriter encodes a frame sequence to an io.Writer.
type DLVWriter struct {
	w      io.Writer
	width  int
	height int
	q      Quality
	qt     [64]int
	gop    int
	n      int
	ref    *Image // reconstructed reference frame
}

// NewDLVWriter starts a DLV stream. gop <= 0 selects DefaultGOP.
func NewDLVWriter(w io.Writer, width, height int, q Quality, gop int) (*DLVWriter, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("codec: invalid dimensions %dx%d", width, height)
	}
	if gop <= 0 {
		gop = DefaultGOP
	}
	var hdr [11]byte
	binary.BigEndian.PutUint32(hdr[0:], dlvMagic)
	binary.LittleEndian.PutUint16(hdr[4:], uint16(width))
	binary.LittleEndian.PutUint16(hdr[6:], uint16(height))
	hdr[8] = uint8(q)
	binary.LittleEndian.PutUint16(hdr[9:], uint16(gop))
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &DLVWriter{w: w, width: width, height: height, q: q, qt: quantTable(q), gop: gop}, nil
}

// WriteFrame appends one frame to the stream.
func (e *DLVWriter) WriteFrame(img *Image) error {
	if img.W != e.width || img.H != e.height {
		return fmt.Errorf("codec: frame %dx%d does not match stream %dx%d", img.W, img.H, e.width, e.height)
	}
	var ftype byte
	var payload []byte
	if e.n%e.gop == 0 || e.ref == nil {
		ftype = frameI
		payload = deflate(encodeBody(img, &e.qt).Bytes())
		// Reconstruct exactly as the decoder will.
		raw, err := inflate(payload)
		if err != nil {
			return err
		}
		rec, err := decodeBody(raw, e.width, e.height, &e.qt)
		if err != nil {
			return err
		}
		e.ref = rec
	} else {
		ftype = frameP
		body, rec := e.encodeP(img)
		payload = deflate(body)
		e.ref = rec
	}
	var hdr [5]byte
	hdr[0] = ftype
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := e.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := e.w.Write(payload); err != nil {
		return err
	}
	e.n++
	return nil
}

// encodeP motion-compensates img against e.ref, returning the raw P-frame
// body and the reconstructed frame.
func (e *DLVWriter) encodeP(img *Image) ([]byte, *Image) {
	buf := &bytes.Buffer{}
	rec := NewImage(e.width, e.height)
	thresh := skipThreshold(e.q)
	for my := 0; my < e.height; my += mbSize {
		for mx := 0; mx < e.width; mx += mbSize {
			sad0 := sadGreen(img, e.ref, mx, my, 0, 0)
			if sad0 <= thresh {
				buf.WriteByte(0) // skip: copy reference
				copyBlock(rec, e.ref, mx, my, 0, 0)
				continue
			}
			dx, dy, _ := motionSearch(img, e.ref, mx, my)
			buf.WriteByte(1)
			buf.WriteByte(byte(int8(dx)))
			buf.WriteByte(byte(int8(dy)))
			e.codeMBResidual(img, rec, mx, my, dx, dy, buf)
		}
	}
	return buf.Bytes(), rec
}

// codeMBResidual encodes the 3-channel residual of one macroblock (four
// 8x8 sub-blocks per channel) and reconstructs into rec.
func (e *DLVWriter) codeMBResidual(img, rec *Image, mx, my, dx, dy int, buf *bytes.Buffer) {
	for c := 0; c < 3; c++ {
		for sy := 0; sy < mbSize; sy += 8 {
			for sx := 0; sx < mbSize; sx += 8 {
				var res [64]float32
				for y := 0; y < 8; y++ {
					for x := 0; x < 8; x++ {
						px, py := mx+sx+x, my+sy+y
						res[y*8+x] = float32(int(img.At(px, py, c)) - int(e.ref.At(px+dx, py+dy, c)))
					}
				}
				recRes := encodeResidualBlock(&res, &e.qt, buf)
				for y := 0; y < 8; y++ {
					for x := 0; x < 8; x++ {
						px, py := mx+sx+x, my+sy+y
						pred := float32(e.ref.At(px+dx, py+dy, c))
						rec.Set(px, py, c, clampU8(pred+recRes[y*8+x]))
					}
				}
			}
		}
	}
}

func copyBlock(dst, src *Image, mx, my, dx, dy int) {
	for c := 0; c < 3; c++ {
		for y := 0; y < mbSize; y++ {
			for x := 0; x < mbSize; x++ {
				dst.Set(mx+x, my+y, c, src.At(mx+x+dx, my+y+dy, c))
			}
		}
	}
}

// Close finalizes the stream. (The format is self-delimiting; Close exists
// for symmetry and future trailer use.)
func (e *DLVWriter) Close() error { return nil }

// DLVReader decodes a DLV stream sequentially. Decoding frame k requires
// decoding all frames since the preceding I-frame — the sequential-decode
// property the storage experiments measure.
type DLVReader struct {
	r      io.Reader
	width  int
	height int
	q      Quality
	qt     [64]int
	gop    int
	ref    *Image
	n      int
}

// NewDLVReader parses the stream header.
func NewDLVReader(r io.Reader) (*DLVReader, error) {
	var hdr [11]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, ErrCorrupt
	}
	if binary.BigEndian.Uint32(hdr[0:]) != dlvMagic {
		return nil, ErrCorrupt
	}
	d := &DLVReader{
		r:      r,
		width:  int(binary.LittleEndian.Uint16(hdr[4:])),
		height: int(binary.LittleEndian.Uint16(hdr[6:])),
		q:      Quality(hdr[8]),
		gop:    int(binary.LittleEndian.Uint16(hdr[9:])),
	}
	if d.width <= 0 || d.height <= 0 || d.gop <= 0 {
		return nil, ErrCorrupt
	}
	d.qt = quantTable(d.q)
	return d, nil
}

// Size returns the stream's frame dimensions.
func (d *DLVReader) Size() (w, h int) { return d.width, d.height }

// Next decodes and returns the next frame, or io.EOF at end of stream.
func (d *DLVReader) Next() (*Image, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ErrCorrupt
	}
	plen := binary.LittleEndian.Uint32(hdr[1:])
	// A frame payload can never exceed a few bytes per pixel; reject
	// absurd lengths before allocating (corrupt-stream defense).
	if int(plen) > 16*d.width*d.height+1024 {
		return nil, ErrCorrupt
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(d.r, payload); err != nil {
		return nil, ErrCorrupt
	}
	raw, err := inflate(payload)
	if err != nil {
		return nil, err
	}
	switch hdr[0] {
	case frameI:
		img, err := decodeBody(raw, d.width, d.height, &d.qt)
		if err != nil {
			return nil, err
		}
		d.ref = img
	case frameP:
		if d.ref == nil {
			return nil, ErrCorrupt
		}
		img, err := d.decodeP(raw)
		if err != nil {
			return nil, err
		}
		d.ref = img
	default:
		return nil, ErrCorrupt
	}
	d.n++
	return d.ref.Clone(), nil
}

func (d *DLVReader) decodeP(raw []byte) (*Image, error) {
	r := bytes.NewReader(raw)
	img := NewImage(d.width, d.height)
	for my := 0; my < d.height; my += mbSize {
		for mx := 0; mx < d.width; mx += mbSize {
			mode, err := r.ReadByte()
			if err != nil {
				return nil, ErrCorrupt
			}
			switch mode {
			case 0:
				copyBlock(img, d.ref, mx, my, 0, 0)
			case 1:
				bdx, err1 := r.ReadByte()
				bdy, err2 := r.ReadByte()
				if err1 != nil || err2 != nil {
					return nil, ErrCorrupt
				}
				dx, dy := int(int8(bdx)), int(int8(bdy))
				for c := 0; c < 3; c++ {
					for sy := 0; sy < mbSize; sy += 8 {
						for sx := 0; sx < mbSize; sx += 8 {
							res, err := decodeResidualBlock(r, &d.qt)
							if err != nil {
								return nil, err
							}
							for y := 0; y < 8; y++ {
								for x := 0; x < 8; x++ {
									px, py := mx+sx+x, my+sy+y
									pred := float32(d.ref.At(px+dx, py+dy, c))
									img.Set(px, py, c, clampU8(pred+res[y*8+x]))
								}
							}
						}
					}
				}
			default:
				return nil, ErrCorrupt
			}
		}
	}
	return img, nil
}

// EncodeDLV encodes a clip to a byte slice (convenience for segmented
// storage).
func EncodeDLV(frames []*Image, q Quality, gop int) ([]byte, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("codec: empty clip")
	}
	var buf bytes.Buffer
	w, err := NewDLVWriter(&buf, frames[0].W, frames[0].H, q, gop)
	if err != nil {
		return nil, err
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeDLV decodes an entire clip.
func DecodeDLV(data []byte) ([]*Image, error) {
	r, err := NewDLVReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var out []*Image
	for {
		img, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, img)
	}
}
