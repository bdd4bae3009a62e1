package vision

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/codec"
	"repro/internal/exec"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// HistogramDim is the length of the color-histogram feature vector
// (4x4x4 RGB bins), the "low-dimensional" feature family of Figure 7.
const HistogramDim = 64

// ColorHistogram computes an L2-normalized 4x4x4 RGB histogram of img —
// the image-matching feature the paper's Example 2 builds KD-trees and
// ball trees over. Bin assignment is trilinear (soft), so the distance
// between histograms varies continuously with color shifts: two renders of
// the same identity stay near-identical while distinct identities separate
// even when their colors share coarse bins.
func ColorHistogram(img *codec.Image) []float32 {
	const bins = 4
	h := make([]float32, HistogramDim)
	n := img.W * img.H
	var f [3]float64
	var lo, hi [3]int
	var wl, wh [3]float64
	for i := 0; i < n; i++ {
		for c := 0; c < 3; c++ {
			f[c] = float64(img.Pix[i*3+c]) / 255 * (bins - 1)
			lo[c] = int(f[c])
			hi[c] = lo[c] + 1
			if hi[c] >= bins {
				hi[c] = bins - 1
			}
			wh[c] = f[c] - float64(lo[c])
			wl[c] = 1 - wh[c]
		}
		for ri := 0; ri < 2; ri++ {
			rb, rw := lo[0], wl[0]
			if ri == 1 {
				rb, rw = hi[0], wh[0]
			}
			if rw == 0 {
				continue
			}
			for gi := 0; gi < 2; gi++ {
				gb, gw := lo[1], wl[1]
				if gi == 1 {
					gb, gw = hi[1], wh[1]
				}
				if gw == 0 {
					continue
				}
				for bi := 0; bi < 2; bi++ {
					bb, bw := lo[2], wl[2]
					if bi == 1 {
						bb, bw = hi[2], wh[2]
					}
					if bw == 0 {
						continue
					}
					h[(rb*bins+gb)*bins+bb] += float32(rw * gw * bw)
				}
			}
		}
	}
	var norm float64
	for _, v := range h {
		norm += float64(v) * float64(v)
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(norm))
		for i := range h {
			h[i] *= inv
		}
	}
	return h
}

// GridHistogram computes per-cell color histograms over a grid x grid
// spatial partition of img, concatenated and jointly L2-normalized
// (grid*grid*HistogramDim dims). Spatial structure separates images that
// share a global palette but differ in layout — the whole-image
// near-duplicate feature.
func GridHistogram(img *codec.Image, grid int) []float32 {
	out := make([]float32, grid*grid*HistogramDim)
	for gy := 0; gy < grid; gy++ {
		for gx := 0; gx < grid; gx++ {
			cell := img.Crop(gx*img.W/grid, gy*img.H/grid, (gx+1)*img.W/grid, (gy+1)*img.H/grid)
			h := ColorHistogram(cell)
			copy(out[(gy*grid+gx)*HistogramDim:], h)
		}
	}
	var norm float64
	for _, v := range out {
		norm += float64(v) * float64(v)
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(norm))
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

// projCache holds fixed random projection matrices keyed by (in, out).
var projCache = map[[2]int][]float32{}
var projMu sync.Mutex

// RandomProject maps vec to outDim dimensions with a fixed random Gaussian
// matrix (Johnson-Lindenstrauss: pairwise distances are approximately
// preserved), then L2-normalizes. The paper's Example 2 motivates exactly
// this: "most image matching algorithms use lower dimensional features to
// match".
func RandomProject(vec []float32, outDim int) []float32 {
	key := [2]int{len(vec), outDim}
	projMu.Lock()
	m, ok := projCache[key]
	if !ok {
		rng := rand.New(rand.NewSource(int64(len(vec))*1_000_003 + int64(outDim)))
		m = make([]float32, len(vec)*outDim)
		scale := float32(1 / math.Sqrt(float64(outDim)))
		for i := range m {
			m[i] = float32(rng.NormFloat64()) * scale
		}
		projCache[key] = m
	}
	projMu.Unlock()
	out := make([]float32, outDim)
	for i, v := range vec {
		if v == 0 {
			continue
		}
		row := m[i*outDim : (i+1)*outDim]
		for j := range row {
			out[j] += v * row[j]
		}
	}
	var norm float64
	for _, v := range out {
		norm += float64(v) * float64(v)
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(norm))
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

// Embedder produces high-dimensional patch embeddings from the shared
// convolutional backbone plus the color histogram — the "high-dimensional"
// feature family of Figure 7. Embeddings of the same object under small
// pixel perturbations stay close; different identities separate by color
// signature.
type Embedder struct {
	dev      exec.Device
	net      *nn.Network
	netDim   int
	inputRes int
}

// NewEmbedder builds the embedder on dev with fixed seed weights.
func NewEmbedder(dev exec.Device, seed int64) *Embedder {
	return &Embedder{dev: dev, net: nn.NewBackbone(64, seed+2), netDim: 64, inputRes: 32}
}

// Dim returns the embedding dimensionality.
func (e *Embedder) Dim() int { return e.netDim + HistogramDim }

// Embed computes the patch embedding: backbone features concatenated with
// the color histogram, L2-normalized jointly. The histogram half carries
// the identity signal; the backbone half adds texture sensitivity and the
// inference cost the ETL phase pays.
func (e *Embedder) Embed(patch *codec.Image) []float32 {
	return e.EmbedBatch([]*codec.Image{patch})[0]
}

// EmbedBatch embeds several patches with one batched backbone pass per
// layer (the launch-overhead amortization accelerators need).
func (e *Embedder) EmbedBatch(patches []*codec.Image) [][]float32 {
	if len(patches) == 0 {
		return nil
	}
	ins := make([]*tensor.Tensor, len(patches))
	for i, p := range patches {
		in := Resize(p, e.inputRes, e.inputRes)
		ins[i] = nn.ImageToCHW(in.Pix, in.W, in.H)
	}
	feats := e.net.ForwardBatch(e.dev, ins)
	out := make([][]float32, len(patches))
	for i := range patches {
		out[i] = e.assemble(feats[i], patches[i])
	}
	nn.ReleaseTensors(feats) // assemble copied what it needed
	nn.ReleaseTensors(ins)
	return out
}

// assemble fuses backbone features with the color histogram.
func (e *Embedder) assemble(feat *tensor.Tensor, patch *codec.Image) []float32 {
	hist := ColorHistogram(patch)
	out := make([]float32, e.netDim+HistogramDim)
	copy(out, feat.F32s)
	// Backbone activations vary in scale; normalize that half alone first.
	var bn float64
	for _, v := range out[:e.netDim] {
		bn += float64(v) * float64(v)
	}
	if bn > 0 {
		inv := float32(0.5 / math.Sqrt(bn)) // weight backbone half at 0.5
		for i := 0; i < e.netDim; i++ {
			out[i] *= inv
		}
	}
	copy(out[e.netDim:], hist)
	var norm float64
	for _, v := range out {
		norm += float64(v) * float64(v)
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(norm))
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}
