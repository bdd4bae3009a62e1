// Package nn is DeepLens's minimal neural-network inference engine. The
// paper's ETL stage is dominated by neural network inference (SSD object
// detection, depth prediction); this package supplies the corresponding
// compute: convolutional feature extractors whose dense kernels run on an
// exec.Device, so the CPU/AVX/GPU comparison of Figure 8 exercises real
// GEMM work. Weights are fixed pseudo-random (seeded): the simulated
// detector heads consume the features deterministically, standing in for
// trained parameters we cannot ship.
package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/exec"
	"repro/internal/tensor"
)

// Layer transforms a CHW float32 tensor on a device.
type Layer interface {
	Forward(dev exec.Device, x *tensor.Tensor) *tensor.Tensor
	Name() string
	// OutShape computes the output shape for a given input shape, used by
	// the pipeline validator.
	OutShape(in []int) ([]int, error)
}

// BatchLayer is implemented by layers with a fused multi-sample forward
// pass. Batching is how real inference amortizes kernel-launch overhead on
// accelerators; the Figure 8 GPU-vs-CPU ETL gap depends on it.
type BatchLayer interface {
	ForwardBatch(dev exec.Device, xs []*tensor.Tensor) []*tensor.Tensor
}

// Network is a sequential stack of layers.
type Network struct {
	Layers []Layer
}

// Forward runs x through all layers on dev.
func (n *Network) Forward(dev exec.Device, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(dev, x)
	}
	return x
}

// ForwardBatch runs equal-shaped inputs through all layers, fusing each
// batch-capable layer into one device kernel. The caller's slice and its
// input tensors are left untouched; intermediate activations are recycled
// through the tensor pool as soon as the next layer has consumed them.
// The returned output tensors are pool-backed: callers that drop them may
// hand them back with tensor.PutF32 (ReleaseTensors) but never have to.
func (n *Network) ForwardBatch(dev exec.Device, xs []*tensor.Tensor) []*tensor.Tensor {
	owned := false // xs are intermediates this call allocated
	for _, l := range n.Layers {
		var next []*tensor.Tensor
		if bl, ok := l.(BatchLayer); ok {
			next = bl.ForwardBatch(dev, xs)
		} else {
			next = make([]*tensor.Tensor, len(xs))
			for i := range xs {
				next[i] = l.Forward(dev, xs[i])
			}
		}
		if owned {
			for i := range xs {
				if i >= len(next) || next[i] != xs[i] {
					tensor.PutF32(xs[i])
				}
			}
		}
		xs = next
		owned = true
	}
	return xs
}

// ReleaseTensors recycles pool-backed tensors a caller is done with (e.g.
// backbone activations after their features have been copied out). The
// tensors must not be used afterwards.
func ReleaseTensors(ts []*tensor.Tensor) {
	for _, t := range ts {
		tensor.PutF32(t)
	}
}

// OutShape propagates a shape through the stack.
func (n *Network) OutShape(in []int) ([]int, error) {
	var err error
	for _, l := range n.Layers {
		if in, err = l.OutShape(in); err != nil {
			return nil, fmt.Errorf("nn: layer %s: %w", l.Name(), err)
		}
	}
	return in, nil
}

// ---------------------------------------------------------------- Conv ----

// Conv2D is a 2-D convolution with square stride and zero padding,
// executed as im2col + GEMM on the device.
type Conv2D struct {
	OutC, InC, KH, KW int
	Stride, Pad       int
	W                 []float32 // OutC × (InC*KH*KW)
	B                 []float32 // OutC
}

// NewConv2D builds a conv layer with Kaiming-style random weights drawn
// from rng.
func NewConv2D(outC, inC, kh, kw, stride, pad int, rng *rand.Rand) *Conv2D {
	w := make([]float32, outC*inC*kh*kw)
	scale := float32(1.0) / float32(inC*kh*kw)
	for i := range w {
		w[i] = float32(rng.NormFloat64()) * scale * 3
	}
	b := make([]float32, outC)
	for i := range b {
		b[i] = float32(rng.NormFloat64()) * 0.01
	}
	return &Conv2D{OutC: outC, InC: inC, KH: kh, KW: kw, Stride: stride, Pad: pad, W: w, B: b}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return fmt.Sprintf("conv%dx%d(%d->%d)", c.KH, c.KW, c.InC, c.OutC) }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != c.InC {
		return nil, fmt.Errorf("want CHW input with C=%d, got %v", c.InC, in)
	}
	oh := (in[1]+2*c.Pad-c.KH)/c.Stride + 1
	ow := (in[2]+2*c.Pad-c.KW)/c.Stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("input %v too small for kernel", in)
	}
	return []int{c.OutC, oh, ow}, nil
}

// Forward implements Layer.
func (c *Conv2D) Forward(dev exec.Device, x *tensor.Tensor) *tensor.Tensor {
	return c.ForwardBatch(dev, []*tensor.Tensor{x})[0]
}

// im2col fills dst (stride n columns) for one input at column offset off.
func (c *Conv2D) im2col(x *tensor.Tensor, dst []float32, n, off, oh, ow int) {
	h, w := x.Shape[1], x.Shape[2]
	for ic := 0; ic < c.InC; ic++ {
		cho := ic * h * w
		for ky := 0; ky < c.KH; ky++ {
			for kx := 0; kx < c.KW; kx++ {
				row := (ic*c.KH+ky)*c.KW + kx
				base := row*n + off
				for oy := 0; oy < oh; oy++ {
					iy := oy*c.Stride + ky - c.Pad
					if iy < 0 || iy >= h {
						continue // zero padding already in place
					}
					srcRow := cho + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*c.Stride + kx - c.Pad
						if ix < 0 || ix >= w {
							continue
						}
						dst[base+oy*ow+ox] = x.F32s[srcRow+ix]
					}
				}
			}
		}
	}
}

// ForwardBatch implements BatchLayer: all inputs (which must share one
// shape) are im2col-packed side by side and convolved with a single GEMM.
func (c *Conv2D) ForwardBatch(dev exec.Device, xs []*tensor.Tensor) []*tensor.Tensor {
	if len(xs) == 0 {
		return nil
	}
	shape, err := c.OutShape(xs[0].Shape)
	if err != nil {
		panic(err)
	}
	oh, ow := shape[1], shape[2]
	k := c.InC * c.KH * c.KW
	per := oh * ow
	n := per * len(xs)
	// Pooled scratch: the im2col matrix and the GEMM result are the two
	// dominant ETL allocations; under serving load they recycle across
	// every frame. GetScratch zeroes, which im2col's padding and the
	// accumulating GEMM both rely on.
	cols := tensor.GetScratch(k * n)
	for i, x := range xs {
		c.im2col(x, cols, n, i*per, oh, ow)
	}
	big := tensor.GetScratch(c.OutC * n)
	dev.GEMM(c.OutC, n, k, c.W, cols, big)
	tensor.PutScratch(cols)
	outs := make([]*tensor.Tensor, len(xs))
	for i := range xs {
		out := tensor.GetF32(shape...)
		for oc := 0; oc < c.OutC; oc++ {
			bias := c.B[oc]
			src := big[oc*n+i*per : oc*n+(i+1)*per]
			dst := out.F32s[oc*per : (oc+1)*per]
			for j := range dst {
				dst[j] = src[j] + bias
			}
		}
		outs[i] = out
	}
	tensor.PutScratch(big)
	return outs
}

// ---------------------------------------------------------------- ReLU ----

// ReLU applies max(0, x) elementwise.
type ReLU struct{}

// Name implements Layer.
func (ReLU) Name() string { return "relu" }

// OutShape implements Layer.
func (ReLU) OutShape(in []int) ([]int, error) { return in, nil }

// Forward implements Layer.
func (ReLU) Forward(_ exec.Device, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.GetF32(x.Shape...)
	for i, v := range x.F32s {
		if v > 0 {
			out.F32s[i] = v
		}
	}
	return out
}

// ------------------------------------------------------------- MaxPool ----

// MaxPool2 is a 2x2 max pooling with stride 2 (floor semantics).
type MaxPool2 struct{}

// Name implements Layer.
func (MaxPool2) Name() string { return "maxpool2" }

// OutShape implements Layer.
func (MaxPool2) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("want CHW input, got %v", in)
	}
	if in[1] < 2 || in[2] < 2 {
		return nil, fmt.Errorf("input %v too small to pool", in)
	}
	return []int{in[0], in[1] / 2, in[2] / 2}, nil
}

// Forward implements Layer.
func (MaxPool2) Forward(_ exec.Device, x *tensor.Tensor) *tensor.Tensor {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh, ow := h/2, w/2
	out := tensor.GetF32(c, oh, ow)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				i0 := ch*h*w + 2*oy*w + 2*ox
				m := x.F32s[i0]
				if v := x.F32s[i0+1]; v > m {
					m = v
				}
				if v := x.F32s[i0+w]; v > m {
					m = v
				}
				if v := x.F32s[i0+w+1]; v > m {
					m = v
				}
				out.F32s[ch*oh*ow+oy*ow+ox] = m
			}
		}
	}
	return out
}

// ------------------------------------------------------- GlobalAvgPool ----

// GlobalAvgPool reduces CHW to a length-C vector.
type GlobalAvgPool struct{}

// Name implements Layer.
func (GlobalAvgPool) Name() string { return "gap" }

// OutShape implements Layer.
func (GlobalAvgPool) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("want CHW input, got %v", in)
	}
	return []int{in[0]}, nil
}

// Forward implements Layer.
func (GlobalAvgPool) Forward(_ exec.Device, x *tensor.Tensor) *tensor.Tensor {
	c, hw := x.Shape[0], x.Shape[1]*x.Shape[2]
	out := tensor.GetF32(c)
	for ch := 0; ch < c; ch++ {
		var s float32
		for _, v := range x.F32s[ch*hw : (ch+1)*hw] {
			s += v
		}
		out.F32s[ch] = s / float32(hw)
	}
	return out
}

// --------------------------------------------------------------- Dense ----

// Dense is a fully connected layer over a flat vector.
type Dense struct {
	In, Out int
	W       []float32 // In × Out
	B       []float32
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d->%d)", d.In, d.Out) }

// OutShape implements Layer.
func (d *Dense) OutShape(in []int) ([]int, error) {
	if tensor.Numel(in) != d.In {
		return nil, fmt.Errorf("want %d inputs, got shape %v", d.In, in)
	}
	return []int{d.Out}, nil
}

// Forward implements Layer.
func (d *Dense) Forward(dev exec.Device, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.GetF32(d.Out)
	dev.GEMM(1, d.Out, d.In, x.F32s, d.W, out.F32s)
	for i := range out.F32s {
		out.F32s[i] += d.B[i]
	}
	return out
}

// ------------------------------------------------------- Preset models ----

// NewBackbone builds the fixed-weight convolutional feature extractor the
// simulated vision models share: a stride-2 stem followed by two conv/pool
// stages over an RGB input, ending in a dim-length embedding.
// Deterministic for a given seed.
func NewBackbone(dim int, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return &Network{Layers: []Layer{
		NewConv2D(6, 3, 3, 3, 2, 1, rng),
		ReLU{},
		MaxPool2{},
		NewConv2D(12, 6, 3, 3, 1, 1, rng),
		ReLU{},
		MaxPool2{},
		NewConv2D(dim, 12, 3, 3, 1, 1, rng),
		ReLU{},
		GlobalAvgPool{},
	}}
}

// ImageToCHW converts an interleaved RGB uint8 raster to a CHW float32
// tensor in [0,1].
func ImageToCHW(pix []uint8, w, h int) *tensor.Tensor {
	out := tensor.GetF32(3, h, w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base := (y*w + x) * 3
			for c := 0; c < 3; c++ {
				out.F32s[c*h*w+y*w+x] = float32(pix[base+c]) / 255
			}
		}
	}
	return out
}
