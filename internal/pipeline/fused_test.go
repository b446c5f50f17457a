package pipeline_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/pipeline"
	"gdpn/internal/stages"
)

// chainWorkers counts the live chain worker goroutines in the process.
func chainWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "pipeline.(*Engine).batchWorker(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// awaitWorkers waits until exactly want chain workers are live; workers
// of a closed chain may take a moment to return after closing their
// output.
func awaitWorkers(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := chainWorkers()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d chain workers live, want %d", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFusedChainLayout pins the physical layout of a chain: one worker
// per stage-bearing position, with relay positions fused into them, so
// the worker count follows the stage assignment alone — the same at any
// GOMAXPROCS — and the stream still matches the sequential reference.
func TestFusedChainLayout(t *testing.T) {
	sol, interior := poolInterior(t, 12, 3)
	rescale := func() []stages.Stage { return []stages.Stage{&stages.Rescale{Gain: 2, Offset: 1}} }
	cases := []struct {
		name      string
		stages    func() []stages.Stage
		placement int // processors of a placed segment; 0 = a New engine on the whole pool
		workers   int
	}{
		{"S<L", lightStages, 0, 4},
		{"one-stage", rescale, 0, 1},
		{"S=L", testStages, 5, 5},
		{"S>L", testStages, 3, 3},
	}
	for _, procs := range []int{1, 4} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/%s", procs, tc.name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var eng *pipeline.Engine
				var err error
				if tc.placement == 0 {
					eng, err = pipeline.New(sol, tc.stages())
				} else {
					eng, err = pipeline.NewPlaced(sol.Graph, interior[:tc.placement], tc.stages())
				}
				if err != nil {
					t.Fatal(err)
				}
				bearing := 0
				for pos := 0; pos < eng.ProcessorsInUse(); pos++ {
					if len(eng.StagesOn(pos)) > 0 {
						bearing++
					}
				}
				if bearing != tc.workers {
					t.Fatalf("%d stage-bearing positions, want %d", bearing, tc.workers)
				}
				ref, err := pipeline.New(sol, tc.stages())
				if err != nil {
					t.Fatal(err)
				}
				frames := genFrames(40, 96, 21)
				want := ref.ProcessSequential(copyFrames(frames))

				awaitWorkers(t, 0)
				st, err := eng.StartStream(pipeline.StreamConfig{})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				awaitWorkers(t, tc.workers)
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
				if n := chainWorkers(); n != tc.workers {
					t.Fatalf("%d chain workers while streaming, want %d", n, tc.workers)
				}
				rep := st.Close()
				got := <-done
				if !rep.Clean() {
					t.Fatalf("stream not clean: %+v", rep)
				}
				assertSameFrames(t, got, want)
			})
		}
	}
}

// TestInPlaceDetachOwnership pins the buffer ownership rules of the
// in-place detach: epoch Process never writes into caller-owned input
// frames, however often they are reused, and a stage output that
// outgrows its frame's buffer moves to a pool buffer while outputs that
// fit stay in place.
func TestInPlaceDetachOwnership(t *testing.T) {
	eng := mustEngine(t, 12, 3)
	ref := mustEngine(t, 12, 3)
	frames := genFrames(24, 256, 3)
	orig := copyFrames(frames)
	for call := 0; call < 3; call++ {
		got := eng.Process(frames)
		assertSameFrames(t, got, ref.ProcessSequential(copyFrames(orig)))
		for i := range frames {
			if len(frames[i].Data) != len(orig[i].Data) {
				t.Fatalf("call %d: input frame %d resized to %d", call, i, len(frames[i].Data))
			}
			for j, x := range orig[i].Data {
				if math.Float64bits(frames[i].Data[j]) != math.Float64bits(x) {
					t.Fatalf("call %d: caller-owned input frame %d sample %d overwritten", call, i, j)
				}
			}
		}
	}

	// Symbols over a small alphabet: LZ78 output starts at two values per
	// symbol (larger than the frame) and shrinks as phrases lengthen.
	const size = 64
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	lz := func() []stages.Stage { return []stages.Stage{stages.NewLZ78(0)} }
	leng, err := pipeline.New(sol, lz())
	if err != nil {
		t.Fatal(err)
	}
	lref, err := pipeline.New(sol, lz())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	syms := make([]pipeline.Frame, 60)
	for i := range syms {
		d := make([]float64, size)
		for j := range d {
			d[j] = float64(rng.Intn(16))
		}
		syms[i] = pipeline.Frame{Seq: i, Data: d}
	}
	want := lref.ProcessSequential(copyFrames(syms))
	grown := 0
	for _, f := range want {
		if len(f.Data) > size {
			grown++
		}
	}
	if grown == 0 || grown == len(want) {
		t.Fatalf("%d of %d outputs outgrow their buffer; the test needs both kinds", grown, len(want))
	}
	st, err := leng.StartStream(pipeline.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []pipeline.Frame)
	go func() {
		var got []pipeline.Frame
		for f := range st.Out() {
			got = append(got, f)
		}
		done <- got
	}()
	for _, f := range syms {
		d := leng.GetBuffer(size)
		copy(d, f.Data)
		if err := st.Submit(pipeline.Frame{Seq: f.Seq, Data: d}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	rep := st.Close()
	got := <-done
	if !rep.Clean() {
		t.Fatalf("stream not clean: %+v", rep)
	}
	assertSameFrames(t, got, want)
	// Every buffer lease beyond the producer's GetBuffer calls is a
	// detach: exactly one per output that outgrew its 64-sample buffer.
	hits, misses := leng.PoolStats()
	if leases := int(hits+misses) - len(syms); leases != grown {
		t.Fatalf("chain leased %d pool buffers, want %d (one per grown output)", leases, grown)
	}
}
