package core

import (
	"repro/internal/codec"
	"repro/internal/tensor"
	"repro/internal/video"
	"repro/internal/vision"
)

// This file is the Visual ETL layer (§4): patch generators turn raw frames
// into patch collections; transformers featurize or annotate patches. Every
// stage takes and returns a Stream, so any intermediate result can be
// materialized and indexed.

// FrameRange is the optional temporal filter of the Load API (§3.1).
type FrameRange struct {
	Lo, Hi uint64 // [Lo, Hi); Hi = 0 means unbounded
}

// LoadVideo returns whole-frame patches from a stored video, pushing the
// temporal filter into the storage format when it supports it (the scan
// semantics differ per format: the Frame File seeks, the Encoded File
// decodes its whole prefix, the Segmented File seeks to the covering
// clip). The stream's patches carry pixel payloads and frameno metadata.
// A goroutine decodes up to 16 frames ahead of the consumer; a consumer
// that stops ranging stops the scan, and the stream returns only once
// that goroutine has exited.
func LoadVideo(source string, st video.Store, filter FrameRange) Stream {
	hi := filter.Hi
	if hi == 0 {
		hi = ^uint64(0)
	}
	return func(yield func(*Patch, error) bool) {
		// 16 frames of read-ahead keep decoding overlapped with the
		// consumer's per-frame inference.
		ch := make(chan *Patch, 16)
		stop := make(chan struct{})
		done := make(chan struct{})
		var err error
		go func() {
			defer close(done)
			defer close(ch)
			err = st.Scan(filter.Lo, hi, func(f video.Frame) bool {
				select {
				case ch <- wholeFrame(source, f.Number, f.Image):
					return true
				case <-stop:
					return false
				}
			})
		}()
		defer func() {
			close(stop)
			<-done
		}()
		for p := range ch {
			if !yield(p, nil) {
				return
			}
		}
		if err != nil {
			yield(nil, err)
		}
	}
}

// FromImages wraps an in-memory image list (the PC corpus) as whole-image
// patches of the named source.
func FromImages(source string, imgs []*codec.Image) Stream {
	return func(yield func(*Patch, error) bool) {
		for i, img := range imgs {
			if !yield(wholeFrame(source, uint64(i), img), nil) {
				return
			}
		}
	}
}

// wholeFrame is frame n of source as a whole-frame patch: its pixels,
// and its frameno, width and height.
func wholeFrame(source string, n uint64, img *codec.Image) *Patch {
	return &Patch{
		Ref:  Ref{Source: source, Frame: n},
		Data: imageToTensor(img),
		Meta: Metadata{
			"frameno": IntV(int64(n)),
			"width":   IntV(int64(img.W)),
			"height":  IntV(int64(img.H)),
		},
	}
}

func imageToTensor(img *codec.Image) *tensor.Tensor {
	return tensor.FromU8(append([]uint8(nil), img.Pix...), img.H, img.W, 3)
}

// ImageToTensor converts an image to the HxWx3 uint8 payload convention.
func ImageToTensor(img *codec.Image) *tensor.Tensor { return imageToTensor(img) }

// TensorToImage converts a pixel patch payload back to an image.
func TensorToImage(t *tensor.Tensor) *codec.Image {
	if t == nil || t.DType != tensor.U8 || len(t.Shape) != 3 {
		return nil
	}
	return &codec.Image{W: t.Shape[1], H: t.Shape[0], Pix: append([]uint8(nil), t.U8s...)}
}

// TileGenerator splits each whole-frame patch into a grid of tileW x
// tileH subimage patches (§2.2: patches "can be whole images, smaller
// tiled subimages, or even subimages extracted by an object detection
// neural network"). Edge tiles are clipped to the frame. Lineage points at
// the frame patch.
func TileGenerator(tileW, tileH int, in Stream) Stream {
	return Transform(in, func(frame *Patch) ([]*Patch, error) {
		img := TensorToImage(frame.Data)
		if img == nil {
			return nil, nil
		}
		var outs []*Patch
		for y := 0; y < img.H; y += tileH {
			for x := 0; x < img.W; x += tileW {
				x2, y2 := x+tileW, y+tileH
				if x2 > img.W {
					x2 = img.W
				}
				if y2 > img.H {
					y2 = img.H
				}
				crop := img.Crop(x, y, x2, y2)
				outs = append(outs, &Patch{
					Ref:  Ref{Source: frame.Ref.Source, Frame: frame.Ref.Frame, Parent: frame.ID},
					Data: imageToTensor(crop),
					Meta: Metadata{
						"bbox":    RectV(float64(x), float64(y), float64(x2), float64(y2)),
						"frameno": IntV(int64(frame.Ref.Frame)),
					},
				})
			}
		}
		return outs, nil
	})
}

// DetectionSchema types the SSD-sim generator's output (§4.2): a closed
// label domain, bbox rect, score and frame lineage.
func DetectionSchema() Schema {
	return Schema{
		Data: Pixels(0, 0),
		Fields: []Field{
			{Name: "label", Kind: KindStr, Domain: vision.ClassNames()},
			{Name: "score", Kind: KindFloat},
			{Name: "bbox", Kind: KindRect},
			{Name: "frameno", Kind: KindInt},
		},
	}
}

// DetectGenerator runs the object detector over whole-frame patches and
// emits one patch per detection, cropped to the bounding box, with lineage
// back to the frame patch (§4.1 Patch Generators).
func DetectGenerator(det *vision.Detector, in Stream) Stream {
	return Transform(in, func(frame *Patch) ([]*Patch, error) {
		img := TensorToImage(frame.Data)
		if img == nil {
			return nil, nil
		}
		dets := det.Detect(img)
		outs := make([]*Patch, 0, len(dets))
		for _, d := range dets {
			crop := img.Crop(d.X1, d.Y1, d.X2, d.Y2)
			outs = append(outs, &Patch{
				Ref:  Ref{Source: frame.Ref.Source, Frame: frame.Ref.Frame, Parent: frame.ID},
				Data: imageToTensor(crop),
				Meta: Metadata{
					"label":   StrV(d.Class.String()),
					"score":   FloatV(d.Score),
					"bbox":    RectV(float64(d.X1), float64(d.Y1), float64(d.X2), float64(d.Y2)),
					"frameno": IntV(int64(frame.Ref.Frame)),
				},
			})
		}
		return outs, nil
	})
}

// OCRSchema types the OCR generator's output.
func OCRSchema() Schema {
	return Schema{
		Data: Pixels(0, 0),
		Fields: []Field{
			{Name: "text", Kind: KindStr},
			{Name: "score", Kind: KindFloat},
			{Name: "bbox", Kind: KindRect},
			{Name: "frameno", Kind: KindInt},
		},
	}
}

// OCRGenerator runs text recognition over patches and emits one patch per
// recognized word. When the input is a detection patch (has a bbox), the
// word's bbox is offset into frame coordinates and lineage points at the
// detection patch.
func OCRGenerator(ocr *vision.OCR, in Stream) Stream {
	return Transform(in, func(src *Patch) ([]*Patch, error) {
		img := TensorToImage(src.Data)
		if img == nil {
			return nil, nil
		}
		offX, offY := 0.0, 0.0
		bb, _ := src.Get("bbox")
		if box := bb.Vec(); len(box) == 4 {
			offX, offY = float64(box[0]), float64(box[1])
		}
		words := ocr.Recognize(img)
		outs := make([]*Patch, 0, len(words))
		for _, w := range words {
			crop := img.Crop(w.X1, w.Y1, w.X2, w.Y2)
			outs = append(outs, &Patch{
				Ref:  Ref{Source: src.Ref.Source, Frame: src.Ref.Frame, Parent: src.ID},
				Data: imageToTensor(crop),
				Meta: Metadata{
					"text":  StrV(w.Text),
					"score": FloatV(w.Score),
					"bbox": RectV(offX+float64(w.X1), offY+float64(w.Y1),
						offX+float64(w.X2), offY+float64(w.Y2)),
					"frameno": IntV(int64(src.Ref.Frame)),
				},
			})
		}
		return outs, nil
	})
}

// HistogramTransformer adds a "hist" color-histogram vector to each patch
// (§4.1 Transformers; the low-dimensional matching feature). Like every
// transformer it adds fields to p.Builder(), so a committed row it reads
// is left as it was.
func HistogramTransformer(in Stream) Stream {
	return Transform(in, func(p *Patch) ([]*Patch, error) {
		if img := TensorToImage(p.Data); img != nil {
			p = p.Builder()
			p.Meta["hist"] = VecV(vision.ColorHistogram(img))
		}
		return []*Patch{p}, nil
	})
}

// GridHistogramTransformer adds a "ghist" feature to each patch: a spatial
// grid histogram projected to 64 dimensions (the whole-image
// near-duplicate feature q1 matches on; low-dimensional per the paper's
// Example 2 so multidimensional indexes stay effective).
func GridHistogramTransformer(grid int, in Stream) Stream {
	return Transform(in, func(p *Patch) ([]*Patch, error) {
		if img := TensorToImage(p.Data); img != nil {
			p = p.Builder()
			p.Meta["ghist"] = VecV(vision.RandomProject(vision.GridHistogram(img, grid), 64))
		}
		return []*Patch{p}, nil
	})
}

// transformBatchSize is the patch batch transformers accumulate before
// one fused model invocation.
const transformBatchSize = 32

// BatchTransform buffers up to size patches and maps them through fn
// together — how transformers batch their model inference. fn may
// replace a batch entry; the stream yields the batch as fn leaves it.
func BatchTransform(in Stream, size int, fn func([]*Patch) error) Stream {
	return func(yield func(*Patch, error) bool) {
		batch := make([]*Patch, 0, size)
		flush := func() bool {
			if err := fn(batch); err != nil {
				yield(nil, err)
				return false
			}
			for _, p := range batch {
				if !yield(p, nil) {
					return false
				}
			}
			batch = batch[:0]
			return true
		}
		for p, err := range in {
			if err != nil {
				yield(nil, err)
				return
			}
			batch = append(batch, p)
			if len(batch) == size && !flush() {
				return
			}
		}
		if len(batch) > 0 {
			flush()
		}
	}
}

// EmbedTransformer adds an "emb" backbone embedding to each patch (the
// high-dimensional matching feature; burns the NN inference the ETL phase
// is dominated by). Inference is batched across patches.
func EmbedTransformer(e *vision.Embedder, in Stream) Stream {
	return BatchTransform(in, transformBatchSize, func(batch []*Patch) error {
		var imgs []*codec.Image
		var idx []int
		for i, p := range batch {
			if img := TensorToImage(p.Data); img != nil {
				imgs = append(imgs, img)
				idx = append(idx, i)
			}
		}
		if len(imgs) == 0 {
			return nil
		}
		embs := e.EmbedBatch(imgs)
		for j, i := range idx {
			batch[i] = batch[i].Builder()
			batch[i].Meta["emb"] = VecV(embs[j])
		}
		return nil
	})
}

// DepthTransformer adds a "depth" prediction to each patch using its bbox
// geometry and pixels. Inference is batched across patches.
func DepthTransformer(dm *vision.DepthModel, in Stream) Stream {
	return BatchTransform(in, transformBatchSize, func(batch []*Patch) error {
		var imgs []*codec.Image
		var boxes [][4]int
		var idx []int
		for i, p := range batch {
			img := TensorToImage(p.Data)
			bb, _ := p.Get("bbox")
			if box := bb.Vec(); img != nil && len(box) == 4 {
				imgs = append(imgs, img)
				boxes = append(boxes, [4]int{int(box[0]), int(box[1]), int(box[2]), int(box[3])})
				idx = append(idx, i)
			}
		}
		if len(imgs) == 0 {
			return nil
		}
		depths := dm.PredictBatch(imgs, boxes)
		for j, i := range idx {
			batch[i] = batch[i].Builder()
			batch[i].Meta["depth"] = FloatV(depths[j])
		}
		return nil
	})
}

// DropData strips the dense payload (after featurization, queries that
// only touch metadata don't need pixels; §4.1 compression). It emits
// copies, so a committed row keeps its payload.
func DropData(in Stream) Stream {
	return Transform(in, func(p *Patch) ([]*Patch, error) {
		q := *p
		q.Data = nil
		return []*Patch{&q}, nil
	})
}
