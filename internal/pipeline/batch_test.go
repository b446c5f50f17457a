package pipeline_test

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"gdpn/internal/construct"
	"gdpn/internal/pipeline"
	"gdpn/internal/stages"
)

// mustEngineOpts is mustEngine with transport options.
func mustEngineOpts(t *testing.T, n, k int, opts ...pipeline.Option) *pipeline.Engine {
	t.Helper()
	sol, err := construct.Design(n, k)
	if err != nil {
		t.Fatalf("Design(%d,%d): %v", n, k, err)
	}
	eng, err := pipeline.New(sol, testStages(), opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng
}

// TestStreamRemapAtEveryBatchOffset forces a live remap after submitting
// j frames for every batch offset j in {0, 1, mid, last} (batch size 4),
// so the drain catches partially assembled and partially traveled batches
// at each alignment, and asserts the delivered frames are bit-identical
// to the sequential reference — the stateful stages (FIR, LZ78) make any
// skipped, repeated, or reordered frame visible in the data.
func TestStreamRemapAtEveryBatchOffset(t *testing.T) {
	const batch = 4
	for _, offset := range []int{0, 1, batch / 2, batch - 1} {
		sol, err := construct.Design(12, 3)
		if err != nil {
			t.Fatalf("Design(12,3): %v", err)
		}
		eng, err := pipeline.New(sol, testStages(), pipeline.WithBatchSize(batch))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ref := mustEngine(t, 12, 3)
		frames := genFrames(3*batch+batch/2, 128, int64(11+offset))
		want := ref.ProcessSequential(copyFrames(frames))

		st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: 2 * batch})
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
		for i, f := range frames {
			if err := st.Submit(f); err != nil {
				t.Fatalf("offset %d: Submit %d: %v", offset, i, err)
			}
			switch i {
			case offset:
				if err := eng.Inject(procs[1]); err != nil {
					t.Fatalf("offset %d: inject: %v", offset, err)
				}
			case offset + batch + 1:
				if err := eng.Repair(procs[1]); err != nil {
					t.Fatalf("offset %d: repair: %v", offset, err)
				}
			}
		}
		rep := st.Close()
		got := <-done
		if !rep.Clean() {
			t.Fatalf("offset %d: stream not clean: %+v", offset, rep)
		}
		if rep.Remaps != 2 {
			t.Fatalf("offset %d: remaps = %d, want 2", offset, rep.Remaps)
		}
		assertSameFrames(t, got, want)
	}
}

// TestBufferPoolRoundTrip pins the GetBuffer/Recycle contract: a recycled
// buffer satisfies the next lease without allocating new storage.
func TestBufferPoolRoundTrip(t *testing.T) {
	eng := mustEngineOpts(t, 10, 2)
	d := eng.GetBuffer(256)
	if len(d) != 256 {
		t.Fatalf("GetBuffer(256) returned len %d", len(d))
	}
	eng.Recycle(pipeline.Frame{Seq: 0, Data: d})
	d2 := eng.GetBuffer(128)
	if len(d2) != 128 {
		t.Fatalf("GetBuffer(128) returned len %d", len(d2))
	}
	if &d[0] != &d2[0] {
		t.Fatalf("recycled storage was not reused")
	}
	hits, misses := eng.PoolStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("PoolStats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

// TestStreamSteadyStateZeroAlloc is the zero-allocation contract of the
// batched transport: with the producer leasing buffers from the engine
// pool and the consumer recycling delivered frames, a steady-state stream
// performs no per-frame heap allocations. The chain is the light one —
// LZ78 allocates inside its own dictionary, which is stage compute, not
// transport. A small absolute slack absorbs one-off runtime noise (stack
// growth, pool rebalancing); per-frame cost must still round to zero.
func TestStreamSteadyStateZeroAlloc(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's scheduling lets the live buffer population outgrow the warm-up peak, even at GOMAXPROCS=1")
	}
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design(12,3): %v", err)
	}
	eng, err := pipeline.New(sol, lightStages())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := eng.StartStream(pipeline.StreamConfig{MaxPending: 64})
	if err != nil {
		t.Fatalf("StartStream: %v", err)
	}
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for f := range st.Out() {
			eng.Recycle(f)
		}
	}()

	const size = 256
	template := genFrames(1, size, 7)[0].Data
	seq := 0
	pump := func(n int) {
		for i := 0; i < n; i++ {
			d := eng.GetBuffer(size)
			copy(d, template)
			if err := st.Submit(pipeline.Frame{Seq: seq, Data: d}); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			seq++
		}
	}

	// Warm up: populate the buffer and batch pools, grow goroutine stacks.
	pump(512)

	// Keep the GC from clearing the pools mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const measured = 2000
	pump(measured)
	runtime.ReadMemStats(&after)

	rep := st.Close()
	<-consumed
	if !rep.Clean() {
		t.Fatalf("stream not clean: %+v", rep)
	}
	allocs := int64(after.Mallocs - before.Mallocs)
	if allocs > measured/100 {
		t.Fatalf("steady state allocated %d objects over %d frames (%.3f/frame), want ~0",
			allocs, measured, float64(allocs)/measured)
	}
}

// TestNoPerFrameAllocIdiom scans the package's non-test sources for the
// append([]float64(nil), ...) per-frame copy idiom that the batched
// transport exists to remove; reintroducing it on a hot path fails here
// (and in the CI lint) before it fails a benchmark gate.
func TestNoPerFrameAllocIdiom(t *testing.T) {
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Clean(name))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "append([]float64(nil)") {
			t.Errorf("%s: contains append([]float64(nil), ...): per-frame copies belong in pooled buffers (see batch.go)", name)
		}
	}
}

// TestBatchSizeOne pins that batch size 1 (the per-frame baseline the
// benchmarks compare against) still satisfies the reference equality.
func TestBatchSizeOne(t *testing.T) {
	sol, err := construct.Design(10, 2)
	if err != nil {
		t.Fatalf("Design(10,2): %v", err)
	}
	eng, err := pipeline.New(sol, testStages(),
		pipeline.WithBatchSize(1), pipeline.WithChannelDepth(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ref := mustEngine(t, 10, 2)
	frames := genFrames(25, 96, 13)
	want := ref.ProcessSequential(copyFrames(frames))
	got := eng.Process(frames)
	assertSameFrames(t, got, want)
}

// lightStages is a cheap chain (no compression) used by the transport
// benchmarks so channel synchronization, not stage compute, dominates.
func lightStages() []stages.Stage {
	return []stages.Stage{
		stages.NewSubsample(2),
		&stages.Rescale{Gain: 1.5, Offset: 0.1},
		stages.NewFIR([]float64{0.25, 0.5, 0.25}),
		stages.NewQuantize(-16, 16, 256),
	}
}
