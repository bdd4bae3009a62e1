package vision

import (
	"repro/internal/codec"
	"repro/internal/exec"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Detection is one object proposal from the detector: the SSD-sim analog
// of a bounding box + label + confidence.
type Detection struct {
	Class          Class
	Score          float64
	X1, Y1, X2, Y2 int
}

// Detector is DeepLens's object-detection model. It combines a fixed
// convolutional backbone (real GEMM compute on the execution device — the
// part of ETL the paper reports as inference-dominated) with a pixel-domain
// head: class-keyed color segmentation and connected components. Because
// the head reads decoded pixels, lossy storage genuinely perturbs its
// output.
type Detector struct {
	dev     exec.Device
	net     *nn.Network
	tile    int
	minArea int
	// dominance thresholds for pixel classification
	minDominant int
	minMargin   int
}

// NewDetector builds the detector on the given device. seed fixes the
// backbone weights.
func NewDetector(dev exec.Device, seed int64) *Detector {
	return &Detector{
		dev:         dev,
		net:         nn.NewBackbone(32, seed),
		tile:        64,
		minArea:     10,
		minDominant: 110,
		minMargin:   40,
	}
}

// classifyPixel assigns a pixel to a class family by channel dominance, or
// ClassUnknown.
func (d *Detector) classifyPixel(r, g, b int) Class {
	switch {
	case r >= d.minDominant && r-g >= d.minMargin && r-b >= d.minMargin:
		return ClassCar
	case b >= d.minDominant && b-r >= d.minMargin && b-g >= d.minMargin:
		return ClassPedestrian
	case g >= d.minDominant && g-r >= d.minMargin && g-b >= d.minMargin:
		return ClassPlayer
	default:
		return ClassUnknown
	}
}

// Detect runs the model over a frame and returns object proposals.
func (d *Detector) Detect(img *codec.Image) []Detection {
	d.burnBackbone(img)
	w, h := img.W, img.H
	labels := make([]uint8, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base := (y*w + x) * 3
			c := d.classifyPixel(int(img.Pix[base]), int(img.Pix[base+1]), int(img.Pix[base+2]))
			labels[y*w+x] = uint8(c)
		}
	}
	return d.components(labels, w, h)
}

// burnBackbone runs the convolutional feature extractor over the frame's
// tiles as one batched forward pass (one GEMM per layer, not per tile);
// its activations gate nothing in the head but represent the inference
// FLOPs the paper's ETL numbers are dominated by, and batching is what
// lets the accelerator backend amortize its launch overhead (Figure 8).
func (d *Detector) burnBackbone(img *codec.Image) {
	var tiles []*tensor.Tensor
	for ty := 0; ty < img.H; ty += d.tile {
		for tx := 0; tx < img.W; tx += d.tile {
			crop := img.Crop(tx, ty, tx+d.tile, ty+d.tile)
			pad := Resize(crop, d.tile, d.tile)
			tiles = append(tiles, nn.ImageToCHW(pad.Pix, pad.W, pad.H))
		}
	}
	feats := d.net.ForwardBatch(d.dev, tiles)
	// The activations gate nothing downstream: recycle them and the tile
	// tensors so per-frame detection is allocation-steady under load.
	nn.ReleaseTensors(feats)
	nn.ReleaseTensors(tiles)
}

// components extracts per-class connected components (4-connectivity) and
// converts them to detections.
func (d *Detector) components(labels []uint8, w, h int) []Detection {
	visited := make([]bool, w*h)
	var out []Detection
	var stack []int
	for start := 0; start < w*h; start++ {
		if visited[start] || labels[start] == uint8(ClassUnknown) {
			continue
		}
		cls := labels[start]
		// Flood fill.
		stack = stack[:0]
		stack = append(stack, start)
		visited[start] = true
		minX, minY, maxX, maxY := w, h, -1, -1
		area := 0
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			px, py := p%w, p/w
			area++
			if px < minX {
				minX = px
			}
			if px > maxX {
				maxX = px
			}
			if py < minY {
				minY = py
			}
			if py > maxY {
				maxY = py
			}
			// 4-neighbours
			if px > 0 && !visited[p-1] && labels[p-1] == cls {
				visited[p-1] = true
				stack = append(stack, p-1)
			}
			if px < w-1 && !visited[p+1] && labels[p+1] == cls {
				visited[p+1] = true
				stack = append(stack, p+1)
			}
			if py > 0 && !visited[p-w] && labels[p-w] == cls {
				visited[p-w] = true
				stack = append(stack, p-w)
			}
			if py < h-1 && !visited[p+w] && labels[p+w] == cls {
				visited[p+w] = true
				stack = append(stack, p+w)
			}
		}
		if area < d.minArea {
			continue
		}
		bw := maxX - minX + 1
		bh := maxY - minY + 1
		fill := float64(area) / float64(bw*bh)
		if fill < 0.2 { // stripes of background misclassified, reject
			continue
		}
		det := Detection{
			Class: Class(cls),
			X1:    minX, Y1: minY, X2: maxX + 1, Y2: maxY + 1,
		}
		// People render a skin-tone head above the colored torso: extend
		// the box upward to approximate the full-body ground truth.
		if det.Class == ClassPedestrian || det.Class == ClassPlayer {
			det.Y1 -= bh / 3
			if det.Y1 < 0 {
				det.Y1 = 0
			}
		}
		// Confidence grows with support and compactness.
		score := fill * float64(area) / (float64(area) + 25)
		if score > 1 {
			score = 1
		}
		det.Score = score
		out = append(out, det)
	}
	return out
}

// Resize nearest-neighbour scales img to w x h (the fixed-resolution input
// contract of the neural models; the paper's type system tracks exactly
// this constraint).
func Resize(img *codec.Image, w, h int) *codec.Image {
	if img.W == w && img.H == h {
		return img
	}
	out := codec.NewImage(w, h)
	for y := 0; y < h; y++ {
		sy := y * img.H / h
		for x := 0; x < w; x++ {
			sx := x * img.W / w
			for c := 0; c < 3; c++ {
				out.Set(x, y, c, img.At(sx, sy, c))
			}
		}
	}
	return out
}

// IoU computes intersection-over-union of two boxes (exclusive max edges).
func IoU(ax1, ay1, ax2, ay2, bx1, by1, bx2, by2 int) float64 {
	ix1, iy1 := max(ax1, bx1), max(ay1, by1)
	ix2, iy2 := min(ax2, bx2), min(ay2, by2)
	if ix2 <= ix1 || iy2 <= iy1 {
		return 0
	}
	inter := float64((ix2 - ix1) * (iy2 - iy1))
	areaA := float64((ax2 - ax1) * (ay2 - ay1))
	areaB := float64((bx2 - bx1) * (by2 - by1))
	return inter / (areaA + areaB - inter)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
