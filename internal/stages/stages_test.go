package stages

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// naiveConvolve is the reference FIR: full-signal convolution.
func naiveConvolve(coeffs, x []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		for j, c := range coeffs {
			if idx := i - j; idx >= 0 {
				out[i] += c * x[idx]
			}
		}
	}
	return out
}

func TestFIRMatchesNaiveConvolutionAcrossFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coeffs := []float64{0.5, 0.25, -0.125, 0.0625}
	signal := make([]float64, 64)
	for i := range signal {
		signal[i] = rng.NormFloat64()
	}
	want := naiveConvolve(coeffs, signal)

	// Stream the same signal through in uneven frames; the delay line must
	// make the result identical to whole-signal convolution.
	f := NewFIR(coeffs)
	var got []float64
	for _, frame := range [][]float64{signal[:7], signal[7:8], signal[8:30], signal[30:]} {
		got = append(got, f.Process(frame)...)
	}
	if !almostEqual(got, want) {
		t.Fatalf("streaming FIR differs from naive convolution\ngot  %v\nwant %v", got[:8], want[:8])
	}
}

func TestFIRImpulseResponse(t *testing.T) {
	f := NewFIR([]float64{1, 2, 3})
	out := f.Process([]float64{1, 0, 0, 0})
	if !almostEqual(out, []float64{1, 2, 3, 0}) {
		t.Fatalf("impulse response = %v", out)
	}
}

func TestFIRReset(t *testing.T) {
	f := NewFIR([]float64{1, 1})
	f.Process([]float64{5})
	f.Reset()
	out := f.Process([]float64{1})
	if !almostEqual(out, []float64{1}) {
		t.Fatalf("after reset, response = %v (history leaked)", out)
	}
}

func TestMovingAverage(t *testing.T) {
	f := NewMovingAverage(4)
	out := f.Process([]float64{4, 4, 4, 4, 8})
	if math.Abs(out[3]-4) > 1e-9 || math.Abs(out[4]-5) > 1e-9 {
		t.Fatalf("moving average = %v", out)
	}
}

func TestIIRExponentialSmoother(t *testing.T) {
	// y[i] = 0.5 x[i] + 0.5 y[i-1]: step response converges to 1.
	f := NewIIR([]float64{0.5}, []float64{1, -0.5})
	in := make([]float64, 50)
	for i := range in {
		in[i] = 1
	}
	out := f.Process(in)
	if math.Abs(out[49]-1) > 1e-6 {
		t.Fatalf("step response tail = %v", out[49])
	}
	if out[0] != 0.5 {
		t.Fatalf("first output = %v, want 0.5", out[0])
	}
}

func TestIIRStreamingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := []float64{0.2, 0.1}
	a := []float64{1, -0.3, 0.05}
	signal := make([]float64, 40)
	for i := range signal {
		signal[i] = rng.NormFloat64()
	}
	batch := NewIIR(b, a)
	want := append([]float64(nil), batch.Process(signal)...)

	stream := NewIIR(b, a)
	var got []float64
	for _, fr := range [][]float64{signal[:3], signal[3:17], signal[17:]} {
		got = append(got, stream.Process(fr)...)
	}
	if !almostEqual(got, want) {
		t.Fatal("streaming IIR differs from batch IIR")
	}
}

func TestIIRValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a[0] != 1 accepted")
		}
	}()
	NewIIR([]float64{1}, []float64{2})
}

func TestSubsamplePhaseAcrossFrames(t *testing.T) {
	s := NewSubsample(3)
	got := append([]float64(nil), s.Process([]float64{0, 1, 2, 3})...)
	got = append(got, s.Process([]float64{4, 5, 6, 7, 8})...)
	if !almostEqual(got, []float64{0, 3, 6}) {
		t.Fatalf("subsample = %v, want [0 3 6]", got)
	}
	s.Reset()
	if out := s.Process([]float64{9}); !almostEqual(out, []float64{9}) {
		t.Fatalf("after reset = %v", out)
	}
}

func TestSubsampleFactorOne(t *testing.T) {
	s := NewSubsample(1)
	in := []float64{1, 2, 3}
	if !almostEqual(s.Process(in), in) {
		t.Fatal("factor-1 subsample should be identity")
	}
}

func TestRescale(t *testing.T) {
	r := &Rescale{Gain: 2, Offset: -1}
	if !almostEqual(r.Process([]float64{0, 1, 2}), []float64{-1, 1, 3}) {
		t.Fatal("rescale wrong")
	}
}

func TestQuantizeBoundsAndRounding(t *testing.T) {
	q := NewQuantize(0, 1, 5) // levels 0..4
	in := []float64{-10, 0, 0.24, 0.26, 0.5, 1, 10}
	got := q.Process(in)
	want := []float64{0, 0, 1, 1, 2, 4, 4}
	if !almostEqual(got, want) {
		t.Fatalf("quantize = %v, want %v", got, want)
	}
}

func TestProjectionConservesMass(t *testing.T) {
	p := NewProjection(8, 3)
	in := []float64{1, 2, 3, 4, 5}
	out := p.Process(in)
	if len(out) != 8 {
		t.Fatalf("bins = %d", len(out))
	}
	var sumIn, sumOut float64
	for _, v := range in {
		sumIn += v
	}
	for _, v := range out {
		sumOut += v
	}
	if math.Abs(sumIn-sumOut) > 1e-9 {
		t.Fatalf("projection lost mass: %v vs %v", sumIn, sumOut)
	}
	if out2 := p.Process(nil); len(out2) != 8 {
		t.Fatal("empty frame should still produce the bin vector")
	}
}

func TestChainAndFunc(t *testing.T) {
	c := &Chain{Stages: []Stage{
		&Rescale{Gain: 2},
		&Func{Label: "plus1", Fn: func(in []float64) []float64 {
			out := make([]float64, len(in))
			for i, x := range in {
				out[i] = x + 1
			}
			return out
		}},
	}}
	if !almostEqual(c.Process([]float64{3}), []float64{7}) {
		t.Fatal("chain composition wrong")
	}
	if c.Name() == "" || c.Stages[1].Name() != "plus1" {
		t.Fatal("names")
	}
	c.Reset() // must not panic
}

func TestLZ78RoundTrip(t *testing.T) {
	enc := NewLZ78(0)
	msg := []byte("abracadabra abracadabra! the quick brown fox abracadabra")
	in := make([]float64, len(msg))
	for i, b := range msg {
		in[i] = float64(b)
	}
	var stream []float64
	stream = append(stream, enc.Process(in[:13])...)
	stream = append(stream, enc.Process(in[13:])...)
	stream = append(stream, enc.Flush()...)
	got, err := LZ78Decode(stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("round trip: %q != %q", got, msg)
	}
	// Compression happened: fewer pairs than symbols on repetitive input.
	if len(stream)/2 >= len(msg) {
		t.Fatalf("no compression: %d pairs for %d symbols", len(stream)/2, len(msg))
	}
}

func TestLZ78BoundedDictionaryRoundTrip(t *testing.T) {
	enc := NewLZ78(8)
	msg := []byte("xyxyxyxyxyxyxyxyxyzzzzzzxyxyxy")
	in := make([]float64, len(msg))
	for i, b := range msg {
		in[i] = float64(b)
	}
	stream := append(append([]float64(nil), enc.Process(in)...), enc.Flush()...)
	got, err := LZ78Decode(stream, 8)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("bounded dict round trip failed: %q", got)
	}
}

func TestLZ78DecodeErrors(t *testing.T) {
	if _, err := LZ78Decode([]float64{1}, 0); err == nil {
		t.Fatal("odd stream accepted")
	}
	if _, err := LZ78Decode([]float64{99, 65}, 0); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

// Property: LZ78 round-trips arbitrary byte strings.
func TestQuickLZ78RoundTrip(t *testing.T) {
	f := func(msg []byte) bool {
		enc := NewLZ78(0)
		in := make([]float64, len(msg))
		for i, b := range msg {
			in[i] = float64(b)
		}
		stream := append(append([]float64(nil), enc.Process(in)...), enc.Flush()...)
		got, err := LZ78Decode(stream, 0)
		if err != nil {
			return false
		}
		return string(got) == string(msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: subsample output length is ⌈len/factor⌉ from a fresh phase.
func TestQuickSubsampleLength(t *testing.T) {
	f := func(raw []float64, factorRaw uint8) bool {
		factor := int(factorRaw)%7 + 1
		s := NewSubsample(factor)
		out := s.Process(raw)
		want := (len(raw) + factor - 1) / factor
		return len(out) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refSubsample is the per-sample decimator the strided Subsample kernel
// must reproduce bit for bit.
type refSubsample struct{ factor, phase int }

func (r *refSubsample) process(in []float64) []float64 {
	var out []float64
	for _, x := range in {
		if r.phase == 0 {
			out = append(out, x)
		}
		r.phase = (r.phase + 1) % r.factor
	}
	return out
}

// Property: the strided Subsample kernel matches the per-sample reference
// for factors 1–7 over runs of frames whose lengths (0..3·factor+1, mostly
// not multiples of the factor) carry the phase from frame to frame.
func TestQuickSubsampleMatchesReference(t *testing.T) {
	f := func(factorRaw uint8, lens []uint8, seed int64) bool {
		factor := int(factorRaw)%7 + 1
		rng := rand.New(rand.NewSource(seed))
		s, ref := NewSubsample(factor), &refSubsample{factor: factor}
		for _, l := range lens {
			in := make([]float64, int(l)%(3*factor+2))
			for i := range in {
				in[i] = rng.NormFloat64()
			}
			got, want := s.Process(in), ref.process(in)
			if len(got) != len(want) || s.phase != ref.phase {
				return false
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Every (factor, starting phase, length) triple once, deterministically.
	for factor := 1; factor <= 7; factor++ {
		for phase := 0; phase < factor; phase++ {
			for n := 0; n <= 3*factor+1; n++ {
				in := make([]float64, n)
				for i := range in {
					in[i] = float64(i + 1)
				}
				s := NewSubsample(factor)
				s.phase = phase
				ref := &refSubsample{factor: factor, phase: phase}
				got, want := s.Process(in), ref.process(in)
				if !almostEqual(got, want) || s.phase != ref.phase {
					t.Fatalf("factor %d phase %d len %d: got %v (phase %d), want %v (phase %d)",
						factor, phase, n, got, s.phase, want, ref.phase)
				}
			}
		}
	}
}

func TestStageValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"fir":        func() { NewFIR(nil) },
		"subsample":  func() { NewSubsample(0) },
		"quantize":   func() { NewQuantize(1, 0, 4) },
		"projection": func() { NewProjection(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid params accepted", name)
				}
			}()
			fn()
		}()
	}
}
