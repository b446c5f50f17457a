// Package stages implements the stream-processing stages that motivate the
// paper (§1): subsampling, rescaling, FIR and IIR filtering, projection
// transforms of the Hough/Radon family, and textual-substitution
// compression. They are the workloads the pipeline runtime maps onto
// gracefully degradable networks.
//
// A Stage transforms one frame (a []float64 sample block) into the next
// frame. Stages are deterministic and side-effect free except for explicit
// internal filter state, which Reset clears; the runtime gives each mapped
// processor its own stage instances, so no synchronization is needed.
package stages

import (
	"fmt"
	"math"
)

// Stage is one step of a processing pipeline.
type Stage interface {
	// Name identifies the stage in metrics and logs.
	Name() string
	// Process transforms a frame. The input slice is not retained; the
	// returned slice may alias internal scratch and is only valid until
	// the next call.
	Process(in []float64) []float64
	// Reset clears internal state (filter delay lines, dictionaries).
	Reset()
}

// FIR is a finite-impulse-response filter: out[i] = Σ_j coeff[j]·x[i-j],
// with the delay line persisting across frames (streaming convolution).
type FIR struct {
	Coeffs []float64
	hist   []float64
	out    []float64
}

// NewFIR returns an FIR stage with the given taps.
func NewFIR(coeffs []float64) *FIR {
	if len(coeffs) == 0 {
		panic("stages: FIR requires at least one coefficient")
	}
	return &FIR{Coeffs: append([]float64(nil), coeffs...)}
}

// NewMovingAverage returns an n-tap moving-average FIR.
func NewMovingAverage(n int) *FIR {
	c := make([]float64, n)
	for i := range c {
		c[i] = 1 / float64(n)
	}
	return NewFIR(c)
}

func (f *FIR) Name() string { return fmt.Sprintf("fir(%d)", len(f.Coeffs)) }

func (f *FIR) Reset() { f.hist = f.hist[:0] }

func (f *FIR) Process(in []float64) []float64 {
	if cap(f.out) < len(in) {
		f.out = make([]float64, len(in))
	}
	out := f.out[:len(in)]
	// Extend history with the new frame, convolve, then keep the tail.
	f.hist = append(f.hist, in...)
	n := len(f.hist)
	for i := range in {
		pos := n - len(in) + i
		var acc float64
		for j, c := range f.Coeffs {
			if idx := pos - j; idx >= 0 {
				acc += c * f.hist[idx]
			}
		}
		out[i] = acc
	}
	// Only the last len(Coeffs)-1 samples matter for future frames.
	if keep := len(f.Coeffs) - 1; len(f.hist) > keep {
		copy(f.hist, f.hist[len(f.hist)-keep:])
		f.hist = f.hist[:keep]
	}
	return out
}

// IIR is a direct-form-I infinite-impulse-response filter:
//
//	out[i] = Σ_j B[j]·x[i-j] − Σ_{j≥1} A[j]·y[i-j],  A[0] ≡ 1.
type IIR struct {
	B, A   []float64
	xh, yh []float64
	out    []float64
}

// NewIIR returns an IIR stage; a[0] must be 1.
func NewIIR(b, a []float64) *IIR {
	if len(b) == 0 || len(a) == 0 || a[0] != 1 {
		panic("stages: IIR requires b non-empty and a[0] == 1")
	}
	return &IIR{B: append([]float64(nil), b...), A: append([]float64(nil), a...)}
}

func (f *IIR) Name() string { return fmt.Sprintf("iir(%d,%d)", len(f.B), len(f.A)) }

func (f *IIR) Reset() { f.xh, f.yh = f.xh[:0], f.yh[:0] }

func (f *IIR) Process(in []float64) []float64 {
	if cap(f.out) < len(in) {
		f.out = make([]float64, len(in))
	}
	out := f.out[:len(in)]
	for i, x := range in {
		f.xh = append(f.xh, x)
		var acc float64
		for j, b := range f.B {
			if idx := len(f.xh) - 1 - j; idx >= 0 {
				acc += b * f.xh[idx]
			}
		}
		for j := 1; j < len(f.A); j++ {
			if idx := len(f.yh) - j; idx >= 0 {
				acc -= f.A[j] * f.yh[idx]
			}
		}
		f.yh = append(f.yh, acc)
		out[i] = acc
	}
	trim(&f.xh, len(f.B)-1)
	trim(&f.yh, len(f.A)-1)
	return out
}

func trim(buf *[]float64, keep int) {
	if keep < 0 {
		keep = 0
	}
	if len(*buf) > keep {
		copy(*buf, (*buf)[len(*buf)-keep:])
		*buf = (*buf)[:keep]
	}
}

// Subsample keeps every Factor-th sample — the decimation step of
// asymmetric video compression (§1).
type Subsample struct {
	Factor int
	phase  int
	out    []float64
}

// NewSubsample returns a decimator keeping one sample in factor.
func NewSubsample(factor int) *Subsample {
	if factor < 1 {
		panic("stages: subsample factor must be ≥ 1")
	}
	return &Subsample{Factor: factor}
}

func (s *Subsample) Name() string { return fmt.Sprintf("subsample(%d)", s.Factor) }

func (s *Subsample) Reset() { s.phase = 0 }

// Process keeps the samples at offsets first, first+Factor, … where
// first is the distance to the next phase-0 sample, and carries the
// phase to the next frame.
func (s *Subsample) Process(in []float64) []float64 {
	f := s.Factor
	first := (f - s.phase) % f
	n := 0
	if first < len(in) {
		n = (len(in) - first + f - 1) / f
	}
	if cap(s.out) < n {
		s.out = make([]float64, n)
	}
	out := s.out[:n]
	for j, i := 0, first; j < n; j, i = j+1, i+f {
		out[j] = in[i]
	}
	s.phase = (s.phase + len(in)) % f
	return out
}

// Rescale applies out = Gain·x + Offset (contrast/brightness rescaling).
type Rescale struct {
	Gain, Offset float64
	out          []float64
}

func (r *Rescale) Name() string { return "rescale" }

func (r *Rescale) Reset() {}

func (r *Rescale) Process(in []float64) []float64 {
	if cap(r.out) < len(in) {
		r.out = make([]float64, len(in))
	}
	out := r.out[:len(in)]
	for i, x := range in {
		out[i] = r.Gain*x + r.Offset
	}
	return out
}

// Quantize rounds samples to Levels uniform steps over [Min, Max],
// emitting the level index — the symbol stream a downstream dictionary
// compressor consumes.
type Quantize struct {
	Min, Max float64
	Levels   int
	out      []float64
}

// NewQuantize returns a uniform quantizer.
func NewQuantize(min, max float64, levels int) *Quantize {
	if levels < 2 || max <= min {
		panic("stages: quantizer requires levels ≥ 2 and max > min")
	}
	return &Quantize{Min: min, Max: max, Levels: levels}
}

func (q *Quantize) Name() string { return fmt.Sprintf("quantize(%d)", q.Levels) }

func (q *Quantize) Reset() {}

func (q *Quantize) Process(in []float64) []float64 {
	if cap(q.out) < len(in) {
		q.out = make([]float64, len(in))
	}
	out := q.out[:len(in)]
	scale := float64(q.Levels-1) / (q.Max - q.Min)
	for i, x := range in {
		v := math.Round((x - q.Min) * scale)
		if v < 0 {
			v = 0
		}
		if v > float64(q.Levels-1) {
			v = float64(q.Levels - 1)
		}
		out[i] = v
	}
	return out
}

// Projection accumulates a binned projection of the frame — the 1D kernel
// of Hough/Radon-transform pipelines for image and CT processing [1]:
// sample i of value v adds v to bin (i·Bins/len + shear) mod Bins.
type Projection struct {
	Bins  int
	Shear int
	out   []float64
}

// NewProjection returns a binned projection stage.
func NewProjection(bins, shear int) *Projection {
	if bins < 1 {
		panic("stages: projection requires ≥ 1 bin")
	}
	return &Projection{Bins: bins, Shear: shear}
}

func (p *Projection) Name() string { return fmt.Sprintf("projection(%d)", p.Bins) }

func (p *Projection) Reset() {}

func (p *Projection) Process(in []float64) []float64 {
	if cap(p.out) < p.Bins {
		p.out = make([]float64, p.Bins)
	}
	out := p.out[:p.Bins]
	for i := range out {
		out[i] = 0
	}
	if len(in) == 0 {
		return out
	}
	for i, v := range in {
		bin := (i*p.Bins/len(in) + p.Shear) % p.Bins
		if bin < 0 {
			bin += p.Bins
		}
		out[bin] += v
	}
	return out
}

// Chain applies a fixed sequence of stages as one stage.
type Chain struct {
	Stages []Stage
}

func (c *Chain) Name() string {
	s := "chain("
	for i, st := range c.Stages {
		if i > 0 {
			s += "→"
		}
		s += st.Name()
	}
	return s + ")"
}

func (c *Chain) Reset() {
	for _, st := range c.Stages {
		st.Reset()
	}
}

func (c *Chain) Process(in []float64) []float64 {
	for _, st := range c.Stages {
		in = st.Process(in)
	}
	return in
}

// Func wraps a pure function as a stage.
type Func struct {
	Label string
	Fn    func(in []float64) []float64
}

func (f *Func) Name() string { return f.Label }

func (f *Func) Reset() {}

func (f *Func) Process(in []float64) []float64 { return f.Fn(in) }
