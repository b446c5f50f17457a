package pipeline_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/pipeline"
	"gdpn/internal/stages"
)

// testStages builds a fresh copy of the full stage chain; FIR and LZ78
// carry internal state, so any frame lost, duplicated, or reordered by
// the stream shows up as diverging output, not just a miscount.
func testStages() []stages.Stage {
	return []stages.Stage{
		stages.NewSubsample(2),
		&stages.Rescale{Gain: 1.5, Offset: 0.1},
		stages.NewFIR([]float64{0.25, 0.5, 0.25}),
		stages.NewQuantize(-16, 16, 256),
		stages.NewLZ78(4096),
	}
}

func genFrames(n, size int, seed int64) []pipeline.Frame {
	rng := rand.New(rand.NewSource(seed))
	fs := make([]pipeline.Frame, n)
	for i := range fs {
		d := make([]float64, size)
		for j := range d {
			d[j] = rng.NormFloat64() * 4
		}
		fs[i] = pipeline.Frame{Seq: i, Data: d}
	}
	return fs
}

func copyFrames(fs []pipeline.Frame) []pipeline.Frame {
	out := make([]pipeline.Frame, len(fs))
	for i, f := range fs {
		out[i] = pipeline.Frame{Seq: f.Seq, Data: append([]float64(nil), f.Data...)}
	}
	return out
}

func mustEngine(t *testing.T, n, k int) *pipeline.Engine {
	t.Helper()
	sol, err := construct.Design(n, k)
	if err != nil {
		t.Fatalf("Design(%d,%d): %v", n, k, err)
	}
	eng, err := pipeline.New(sol, testStages())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng
}

func assertSameFrames(t *testing.T, got, want []pipeline.Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq {
			t.Fatalf("frame %d: seq %d, want %d", i, got[i].Seq, want[i].Seq)
		}
		if len(got[i].Data) != len(want[i].Data) {
			t.Fatalf("frame %d: %d samples, want %d", i, len(got[i].Data), len(want[i].Data))
		}
		for j := range want[i].Data {
			if got[i].Data[j] != want[i].Data[j] {
				t.Fatalf("frame %d sample %d: %v, want %v", i, j, got[i].Data[j], want[i].Data[j])
			}
		}
	}
}

// TestStreamMatchesSequentialReference streams frames with no faults and
// checks the output is bit-identical to the sequential reference engine.
func TestStreamMatchesSequentialReference(t *testing.T) {
	eng := mustEngine(t, 12, 3)
	ref := mustEngine(t, 12, 3)
	frames := genFrames(40, 256, 5)
	want := ref.ProcessSequential(copyFrames(frames))

	st, err := eng.StartStream(pipeline.StreamConfig{})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	done := make(chan []pipeline.Frame)
	go func() {
		var got []pipeline.Frame
		for f := range st.Out() {
			got = append(got, f)
		}
		done <- got
	}()
	for _, f := range frames {
		if err := st.Submit(f); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	rep := st.Close()
	got := <-done
	if !rep.Clean() {
		t.Fatalf("stream not clean: %+v", rep)
	}
	assertSameFrames(t, got, want)
}

// TestStreamZeroLossAcrossRemaps interleaves live faults and repairs with
// traffic and checks (a) the zero-loss ledger and (b) that the delivered
// data is bit-identical to an unfaulted sequential run — which holds only
// if every requeued frame resumed at exactly the right stage, in order.
func TestStreamZeroLossAcrossRemaps(t *testing.T) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design(12,3): %v", err)
	}
	eng, err := pipeline.New(sol, testStages())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ref := mustEngine(t, 12, 3)
	frames := genFrames(120, 256, 9)
	want := ref.ProcessSequential(copyFrames(frames))

	st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: 8})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	done := make(chan []pipeline.Frame)
	go func() {
		var got []pipeline.Frame
		for f := range st.Out() {
			got = append(got, f)
		}
		done <- got
	}()

	procs := sol.Graph.Processors()
	remap := map[int]func() error{
		20:  func() error { return eng.Inject(procs[0]) },
		40:  func() error { return eng.Inject(procs[3]) },
		60:  func() error { return eng.Repair(procs[0]) },
		80:  func() error { return eng.Inject(procs[5]) },
		100: func() error { return eng.Repair(procs[3]) },
	}
	for i, f := range frames {
		if err := st.Submit(f); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if op, ok := remap[i]; ok {
			if err := op(); err != nil {
				t.Fatalf("remap at frame %d: %v", i, err)
			}
		}
	}
	rep := st.Close()
	got := <-done
	if !rep.Clean() {
		t.Fatalf("stream not clean after remaps: %+v", rep)
	}
	if rep.Remaps != 5 {
		t.Fatalf("remaps = %d, want 5", rep.Remaps)
	}
	assertSameFrames(t, got, want)
}

// TestStreamBackpressure checks that with a tiny pending bound and a
// stalled consumer, Submit stops accepting rather than buffering without
// limit — and that everything still drains cleanly once the consumer
// starts.
func TestStreamBackpressure(t *testing.T) {
	eng := mustEngine(t, 10, 2)
	st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: 2})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	const total = 400
	frames := genFrames(total, 64, 3)
	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		for _, f := range frames {
			if st.Submit(f) != nil {
				return
			}
		}
	}()
	// No consumer yet: the producer must stall well short of total once the
	// pending bound, chain buffers, and delivery buffer are all full.
	deadline := time.Now().Add(2 * time.Second)
	var stalled int64
	for time.Now().Before(deadline) {
		a := st.Report().Submitted
		time.Sleep(50 * time.Millisecond)
		if b := st.Report().Submitted; b == a && b < total {
			stalled = b
			break
		}
	}
	if stalled == 0 || stalled >= total {
		t.Fatalf("producer never stalled (submitted=%d of %d)", st.Report().Submitted, total)
	}

	var got int
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for range st.Out() {
			got++
		}
	}()
	<-producerDone
	rep := st.Close()
	<-consumerDone
	if !rep.Clean() || rep.Delivered != total {
		t.Fatalf("after draining: delivered=%d (want %d), report %+v", rep.Delivered, total, rep)
	}
	if got != total {
		t.Fatalf("consumer saw %d frames, want %d", got, total)
	}
}

// TestStreamShortBatchesNotHeld drives a request/response producer that
// waits for its frames before submitting more. The pump holds a short
// batch back only while other frames are in flight, so every wait must
// end without Close flushing it, and the output must still match the
// sequential reference.
func TestStreamShortBatchesNotHeld(t *testing.T) {
	eng := mustEngine(t, 12, 3)
	ref := mustEngine(t, 12, 3)
	frames := genFrames(60, 64, 11)
	want := ref.ProcessSequential(copyFrames(frames))

	st, err := eng.StartStream(pipeline.StreamConfig{})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	var got []pipeline.Frame
	// Rounds of 1, 2 and 3 frames: after the first frame of a round enters
	// the empty chain, the rest form a short batch behind it.
	for next, n := 0, 1; next < len(frames); next, n = next+n, n%3+1 {
		round := frames[next:min(next+n, len(frames))]
		for _, f := range round {
			if err := st.Submit(f); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
		for range round {
			select {
			case f := <-st.Out():
				got = append(got, f)
			case <-time.After(5 * time.Second):
				t.Fatalf("frame %d not delivered while the stream stayed open", len(got))
			}
		}
	}
	if rep := st.Close(); !rep.Clean() {
		t.Fatalf("stream not clean: %+v", rep)
	}
	assertSameFrames(t, got, want)
}

// TestStreamLifecycleErrors covers the exclusivity and closed-stream
// errors, and that a fresh stream can start after Close.
func TestStreamLifecycleErrors(t *testing.T) {
	eng := mustEngine(t, 10, 2)
	st, err := eng.StartStream(pipeline.StreamConfig{})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	if _, err := eng.StartStream(pipeline.StreamConfig{}); !errors.Is(err, pipeline.ErrStreamActive) {
		t.Fatalf("second StartStream: %v, want ErrStreamActive", err)
	}
	go func() {
		for range st.Out() {
		}
	}()
	rep := st.Close()
	if !rep.Clean() {
		t.Fatalf("empty stream not clean: %+v", rep)
	}
	if err := st.Submit(pipeline.Frame{Seq: 0}); !errors.Is(err, pipeline.ErrStreamClosed) {
		t.Fatalf("Submit after Close: %v, want ErrStreamClosed", err)
	}
	// The engine is back in epoch mode and a new stream may start.
	st2, err := eng.StartStream(pipeline.StreamConfig{})
	if err != nil {
		t.Fatalf("StartStream after Close: %v", err)
	}
	go func() {
		for range st2.Out() {
		}
	}()
	if rep := st2.Close(); !rep.Clean() {
		t.Fatalf("second stream not clean: %+v", rep)
	}
}

// TestSubmitRacingClose pins the contract between Submit/TrySubmit and a
// concurrent Close: a nil return means the frame is delivered exactly
// once and counted in Report().Submitted; ErrStreamClosed or
// ErrBackpressure means it was not accepted and never appears on Out.
// Two producers (one blocking, one not) share a sequence counter, so
// their calls stay ordered, while Close lands at a different point in
// each round. In every other round nothing consumes until Close starts,
// so Close races a Submit blocked on a full stream. Run it under -race.
func TestSubmitRacingClose(t *testing.T) {
	sol, err := construct.Design(10, 2)
	if err != nil {
		t.Fatalf("Design(10,2): %v", err)
	}
	eng, err := pipeline.New(sol, lightStages())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 60; round++ {
		st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: 1 + rng.Intn(16)})
		if err != nil {
			t.Fatalf("round %d: StartStream: %v", round, err)
		}
		delivered := make(chan []int)
		consume := func() {
			var seqs []int
			for f := range st.Out() {
				seqs = append(seqs, f.Seq)
			}
			delivered <- seqs
		}
		stalled := round%2 == 1
		if !stalled {
			go consume()
		}

		var (
			mu       sync.Mutex
			next     int
			accepted []int
			refused  = map[int]bool{}
		)
		closeAt := rng.Intn(200)
		reached := make(chan struct{})
		var once sync.Once
		var wg sync.WaitGroup
		for p, try := range []bool{false, true} {
			wg.Add(1)
			go func(p int, try bool) {
				defer wg.Done()
				for {
					mu.Lock()
					f := pipeline.Frame{Seq: next, Data: make([]float64, 16)}
					next++
					var err error
					if try {
						err = st.TrySubmit(f)
					} else {
						err = st.Submit(f)
					}
					switch {
					case err == nil:
						accepted = append(accepted, f.Seq)
						if !stalled && len(accepted) >= closeAt {
							once.Do(func() { close(reached) })
						}
					case errors.Is(err, pipeline.ErrBackpressure):
						refused[f.Seq] = true
						once.Do(func() { close(reached) })
						mu.Unlock()
						runtime.Gosched() // let the pump catch up
						continue
					case errors.Is(err, pipeline.ErrStreamClosed):
						refused[f.Seq] = true
						mu.Unlock()
						return
					default:
						t.Errorf("producer %d: %v", p, err)
						mu.Unlock()
						return
					}
					mu.Unlock()
				}
			}(p, try)
		}
		if stalled {
			// Full once TrySubmit is refused — unless the blocking producer
			// got there first and holds the counter while it waits.
			select {
			case <-reached:
			case <-time.After(5 * time.Millisecond):
			}
			go consume()
		} else {
			<-reached
		}
		rep := st.Close()
		wg.Wait()
		got := <-delivered
		mu.Lock()
		if !rep.Clean() || rep.Submitted != int64(len(accepted)) {
			t.Fatalf("round %d: accepted %d frames, report %+v", round, len(accepted), rep)
		}
		if len(got) != len(accepted) {
			t.Fatalf("round %d: delivered %d frames, accepted %d", round, len(got), len(accepted))
		}
		for i, seq := range got {
			if refused[seq] {
				t.Fatalf("round %d: refused frame %d was delivered", round, seq)
			}
			if seq != accepted[i] {
				t.Fatalf("round %d: delivery %d is seq %d, want %d", round, i, seq, accepted[i])
			}
		}
		mu.Unlock()
	}
}

// TestTrySubmitBackpressure drives TrySubmit against a stream with no
// consumer: once the chain, Out and the intake are full it must refuse
// frames, leave a refused frame's buffer untouched and never deliver it,
// and once a consumer drains the stream the accepted frames must match
// the sequential reference.
func TestTrySubmitBackpressure(t *testing.T) {
	eng := mustEngine(t, 10, 2)
	ref := mustEngine(t, 10, 2)
	st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: 2})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	frames := genFrames(5000, 32, 21)
	var accepted, refused []pipeline.Frame
	var refusedCopies [][]float64
	for _, f := range frames {
		in := append([]float64(nil), f.Data...)
		switch err := st.TrySubmit(f); {
		case err == nil:
			accepted = append(accepted, pipeline.Frame{Seq: f.Seq, Data: in})
		case errors.Is(err, pipeline.ErrBackpressure):
			refused = append(refused, f)
			refusedCopies = append(refusedCopies, in)
		default:
			t.Fatalf("TrySubmit %d: %v", f.Seq, err)
		}
		if len(refused) == 10 {
			break
		}
	}
	if len(refused) == 0 {
		t.Fatalf("TrySubmit accepted all %d frames with no consumer", len(accepted))
	}

	done := make(chan []pipeline.Frame)
	go func() {
		var got []pipeline.Frame
		for f := range st.Out() {
			got = append(got, f)
		}
		done <- got
	}()
	rep := st.Close()
	got := <-done
	if !rep.Clean() || rep.Submitted != int64(len(accepted)) {
		t.Fatalf("accepted %d frames, report %+v", len(accepted), rep)
	}
	assertSameFrames(t, got, ref.ProcessSequential(accepted))
	for i, f := range refused {
		for j := range f.Data {
			if f.Data[j] != refusedCopies[i][j] {
				t.Fatalf("refused frame %d: sample %d changed", f.Seq, j)
			}
		}
	}
}

// frameDigest folds a frame's sequence number and sample bits into h
// (FNV-1a over 64-bit words).
func frameDigest(h uint64, f pipeline.Frame) uint64 {
	mix := func(w uint64) { h = (h ^ w) * 1099511628211 }
	mix(uint64(f.Seq))
	for _, x := range f.Data {
		mix(math.Float64bits(x))
	}
	return h
}

// TestRemapServedUnderSaturation checks that the pump's non-blocking fast
// paths cannot starve remaps: while a producer keeps a G(12,3) stream
// saturated, 60 Inject/Repair pairs must each return promptly, and the
// stream must stay clean and match the sequential reference (compared by
// digest, so the test's memory does not grow with the frame count).
func TestRemapServedUnderSaturation(t *testing.T) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design(12,3): %v", err)
	}
	eng, err := pipeline.New(sol, lightStages())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ref, err := pipeline.New(sol, lightStages())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := eng.StartStream(pipeline.StreamConfig{})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	const offset64 = 14695981039346656037
	type result struct {
		n      int
		digest uint64
	}
	done := make(chan result)
	go func() {
		r := result{digest: offset64}
		for f := range st.Out() {
			r.n++
			r.digest = frameDigest(r.digest, f)
		}
		done <- r
	}()
	// Inputs are a seeded template rotated by the frame's seq: cheap
	// enough that the producer outruns the chain, and replayable, so the
	// reference needs no copies.
	const samples = 128
	tmpl := genFrames(1, samples, 23)[0].Data
	gen := func(seq int) pipeline.Frame {
		d := make([]float64, samples)
		r := seq % samples
		copy(d, tmpl[r:])
		copy(d[samples-r:], tmpl[:r])
		return pipeline.Frame{Seq: seq, Data: d}
	}

	// The producer submits as fast as the stream admits until the remaps
	// are done.
	var stopOnce sync.Once
	stop := make(chan struct{})
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	t.Cleanup(func() { halt(); st.Close() })
	var submitted atomic.Int64
	produced := make(chan int, 1)
	go func() {
		seq := 0
		defer func() { produced <- seq }()
		for ; ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Submit(gen(seq)); err != nil {
				select {
				case <-stop: // the test is ending early
				default:
					t.Errorf("Submit %d: %v", seq, err)
				}
				return
			}
			submitted.Add(1)
		}
	}()
	// refilled waits until the producer has submitted n more frames, so
	// every remap lands on a full stream.
	refilled := func(n int64) bool {
		want := submitted.Load() + n
		deadline := time.Now().Add(10 * time.Second)
		for submitted.Load() < want {
			if time.Now().After(deadline) {
				return false
			}
			runtime.Gosched()
		}
		return true
	}

	const pairs = 60
	const bound = time.Second // a remap takes a few ms even under -race
	remapsDone := make(chan error, 1)
	go func() {
		procs := sol.Graph.Processors()
		if !refilled(2000) {
			remapsDone <- fmt.Errorf("producer stalled before the remaps")
			return
		}
		for i := 0; i < pairs; i++ {
			node := procs[i%len(procs)]
			for _, op := range []func(int) error{eng.Inject, eng.Repair} {
				if !refilled(100) {
					remapsDone <- fmt.Errorf("producer stalled at remap pair %d", i)
					return
				}
				start := time.Now()
				if err := op(node); err != nil {
					remapsDone <- err
					return
				}
				if d := time.Since(start); d > bound {
					remapsDone <- fmt.Errorf("remap of node %d took %v", node, d)
					return
				}
			}
		}
		remapsDone <- nil
	}()
	select {
	case err := <-remapsDone:
		if err != nil {
			t.Fatalf("remap under saturation: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%d Inject/Repair pairs did not finish under saturation", pairs)
	}
	halt()
	n := <-produced
	rep := st.Close()
	got := <-done
	if !rep.Clean() || rep.Remaps != 2*pairs || rep.Submitted != int64(n) {
		t.Fatalf("stream after %d remaps and %d frames: %+v", 2*pairs, n, rep)
	}
	want := result{digest: offset64}
	for seq := 0; seq < n; {
		chunk := make([]pipeline.Frame, 0, 4096)
		for ; seq < n && len(chunk) < cap(chunk); seq++ {
			chunk = append(chunk, gen(seq))
		}
		for _, f := range ref.ProcessSequential(chunk) {
			want.n++
			want.digest = frameDigest(want.digest, f)
		}
	}
	if got != want {
		t.Fatalf("delivered %d frames (digest %x), reference %d (digest %x)", got.n, got.digest, want.n, want.digest)
	}
}
