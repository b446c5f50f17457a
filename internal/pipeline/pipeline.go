// Package pipeline is the streaming runtime that the paper's constructions
// exist to serve (§1): it maps a sequence of signal-processing stages onto
// the processors of a gracefully degradable pipeline network, pumps frames
// through a channel chain of workers that fuses pass-through relay
// processors into the stage-bearing ones, and — when a fault is
// injected — asks its reconfig.Manager for a new pipeline over the
// remaining healthy processors and remaps the stages onto it. Every
// remap, a fault, a repair or a new placement from the multi-tenant
// planner alike, is one step run on the quiesced engine that yields the
// new processor segment; a live Stream drains and requeues its
// in-flight frames around it.
//
// Graceful degradation is visible directly in the runtime: after f ≤ k
// faults the pipeline still uses every healthy processor (verified on each
// remap), so per-processor load grows by only n/(n−f) rather than dropping
// processors wholesale.
//
// The engine is instrumented through internal/obs (disabled by default, so
// hot paths pay one atomic load): per-frame end-to-end latency
// (pipeline_frame_latency_ns), per-worker stage processing time and
// channel-send stall (pipeline_stage_ns, pipeline_send_stall_ns),
// per-epoch wall time and throughput (pipeline_epoch_ns,
// pipeline_epoch_throughput_bps), and remap latency by operation
// (pipeline_remap_ns{op="inject"|"repair"|"replan"}).
package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gdpn/internal/bitset"
	"gdpn/internal/construct"
	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/reconfig"
	"gdpn/internal/stages"
)

// Frame is one block of samples moving through the pipeline.
type Frame struct {
	Seq  int
	Data []float64
}

// Metrics aggregates runtime behaviour across the engine's lifetime.
type Metrics struct {
	// FramesProcessed counts frames that exited the pipeline.
	FramesProcessed int64
	// Remaps counts successful reconfigurations.
	Remaps int
	// RemapTime accumulates the time spent computing new pipelines.
	RemapTime time.Duration
	// FaultsInjected counts Inject calls that added a fault.
	FaultsInjected int
	// Repairs breaks reconfigurations down by tactic (splice / rewire /
	// endpoint swap / full remap) — see internal/reconfig.
	Repairs reconfig.Stats
}

// Engine drives one pipeline network: its stages run on a processor
// segment that every remap replaces. An engine built by New owns a
// reconfig.Manager over the whole solution and derives the segment from
// it on Inject/Repair; one built by NewPlaced runs on a segment carved by
// the control plane's planner and takes new ones via ApplyPlacement (see
// placed.go). Both kinds of remap take the same drain/requeue path.
type Engine struct {
	g      *graph.Graph
	mgr    *reconfig.Manager // the engine's own fault manager; nil for NewPlaced engines
	path   graph.Path        // the processor segment the stages run on
	tenant string            // optional tenant label carried on remap spans
	stages []stages.Stage
	assign [][]int // per pipeline position (processors only): logical stage indices

	// frames is read by Metrics() while Process/ProcessSequential write it,
	// so it lives outside the mutex as an atomic.
	frames atomic.Int64
	mu     sync.Mutex // guards the remaining Metrics fields
	m      Metrics

	// stream is the live Stream instance, if any; Inject/Repair route
	// through it so remaps drain and requeue in-flight frames.
	stream atomic.Pointer[Stream]

	// Batched-transport tuning (see batch.go) and the buffer/carrier free
	// lists behind the zero-allocation steady state. maxInflight bounds
	// the frames a stream admits into the chain: two batches per pool
	// processor keep every worker busy while keeping the in-flight
	// population small and independent of the channel depth.
	batchSize   int
	chanDepth   int
	maxInflight int
	pool        bufPool
	batches     freeList[*frameBatch]

	reg            *obs.Registry
	framesTotal    *obs.Counter
	framesRequeued *obs.Counter
	frameLat       *obs.Histogram
	stageTime      *obs.Histogram
	sendStall      *obs.Histogram
	batchOcc       *obs.Histogram
	epochTime      *obs.Histogram
	epochTput      *obs.Gauge
	procsInUse     *obs.Gauge
	frameLoss      *obs.Gauge
	remapDowntime  *obs.Histogram
	remapLat       [3]*obs.Histogram // indexed by opInject/opRepair/opReplan
}

const (
	opInject = 0
	opRepair = 1
	opReplan = 2
)

var opNames = [...]string{opInject: "inject", opRepair: "repair", opReplan: "replan"}

// New builds an engine over a designed solution and the given logical
// stage chain, and maps the initial (fault-free) pipeline. The stage
// instances are owned by the engine: their internal state survives
// remapping, as a checkpoint-restore would in a real array. Options
// tune the batched transport (WithBatchSize, WithChannelDepth).
func New(sol *construct.Solution, stgs []stages.Stage, opts ...Option) (*Engine, error) {
	if len(stgs) == 0 {
		return nil, fmt.Errorf("pipeline: need at least one stage")
	}
	mgr, err := reconfig.New(sol)
	if err != nil {
		return nil, err
	}
	p := mgr.Pipeline()
	e := newEngine(sol.Graph, stgs, p[1:len(p)-1], opts)
	e.mgr = mgr
	return e, nil
}

// newEngine builds an engine running stgs on the processor segment seg:
// transport tuning defaults overridden by opts, the instrumentation
// surface, and the initial stage assignment.
func newEngine(g *graph.Graph, stgs []stages.Stage, seg graph.Path, opts []Option) *Engine {
	reg := obs.Default()
	e := &Engine{
		g: g, stages: stgs,
		batchSize:      DefaultBatchSize,
		chanDepth:      DefaultChannelDepth,
		reg:            reg,
		framesTotal:    reg.Counter("pipeline_frames_total"),
		framesRequeued: reg.Counter("pipeline_frames_requeued_total"),
		frameLat:       reg.Histogram("pipeline_frame_latency_ns"),
		stageTime:      reg.Histogram("pipeline_stage_ns"),
		sendStall:      reg.Histogram("pipeline_send_stall_ns"),
		batchOcc:       reg.Histogram("pipeline_batch_occupancy"),
		epochTime:      reg.Histogram("pipeline_epoch_ns"),
		epochTput:      reg.Gauge("pipeline_epoch_throughput_bps"),
		procsInUse:     reg.Gauge("pipeline_procs_in_use"),
		frameLoss:      reg.Gauge("pipeline_frame_loss"),
		remapDowntime:  reg.Histogram("pipeline_remap_downtime_ns"),
		remapLat: [3]*obs.Histogram{
			reg.Histogram("pipeline_remap_ns", obs.L("op", "inject")),
			reg.Histogram("pipeline_remap_ns", obs.L("op", "repair")),
			reg.Histogram("pipeline_remap_ns", obs.L("op", "replan")),
		},
	}
	e.pool.hitC = reg.Counter("pipeline_pool_total", obs.L("result", "hit"))
	e.pool.missC = reg.Counter("pipeline_pool_total", obs.L("result", "miss"))
	for _, o := range opts {
		o(e)
	}
	e.maxInflight = 2 * (len(g.Processors()) + 1) * e.batchSize
	e.reserve(defaultMaxPending)
	e.path = append(graph.Path(nil), seg...)
	e.assignStages()
	e.procsInUse.Set(int64(len(seg)))
	return e
}

// Pipeline returns the current pipeline path (aliased; do not modify):
// the manager's terminal-to-terminal pipeline for New engines, the
// placement segment (processors only) for NewPlaced ones.
func (e *Engine) Pipeline() graph.Path {
	if e.mgr != nil {
		return e.mgr.Pipeline()
	}
	return e.path
}

// ProcessorsInUse returns the number of processors in the current pipeline.
func (e *Engine) ProcessorsInUse() int { return len(e.path) }

// Manager returns the engine's fault manager — its fault set, repair
// deadline and resources (SetDeadline, SetResources), and downtime
// ledger — or nil for a NewPlaced engine.
func (e *Engine) Manager() *reconfig.Manager { return e.mgr }

// Metrics returns a consistent snapshot of the engine's counters. It is
// safe to call while Process runs on another goroutine.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	m := e.m
	e.mu.Unlock()
	m.FramesProcessed = e.frames.Load()
	return m
}

// StagesOn returns the logical stage indices assigned to pipeline position
// pos (0-based over processors), or nil when pos is out of range.
func (e *Engine) StagesOn(pos int) []int {
	if pos < 0 || pos >= len(e.assign) {
		return nil
	}
	return e.assign[pos]
}

// Inject marks a node faulty and repairs the pipeline — locally when one
// of the reconfig tactics applies, by full recompute otherwise. It returns
// an error (leaving the previous mapping in place) when the node is
// already faulty, when the manager's remap deadline expires
// (errors.Is reconfig.ErrDeadline; the fault is rolled back), or when no
// pipeline survives — the latter only happens beyond the design fault
// budget k. While a Stream is active the injection routes through it:
// in-flight frames are drained and requeued around the remap so none is
// lost or duplicated.
func (e *Engine) Inject(node int) error {
	if e.mgr == nil {
		return ErrPlaced
	}
	return e.remap(remapReq{op: opInject, node: node, step: e.managed(e.mgr.Fault, node)})
}

// Repair marks a node healthy again and reinstates it in the pipeline.
// While a Stream is active the repair routes through it, like Inject.
func (e *Engine) Repair(node int) error {
	if e.mgr == nil {
		return ErrPlaced
	}
	return e.remap(remapReq{op: opRepair, node: node, step: e.managed(e.mgr.Repair, node)})
}

// managed is the remap step of a New engine: one manager fault or repair
// under the root remap span (the causal parent of the manager's
// detect/plan/solve/audit phases), yielding the new pipeline's interior.
func (e *Engine) managed(op func(int) (reconfig.Tactic, error), node int) func(*span.S) (graph.Path, error) {
	return func(root *span.S) (graph.Path, error) {
		e.mgr.SetActiveSpan(root)
		_, err := op(node)
		e.mgr.SetActiveSpan(nil)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		p := e.mgr.Pipeline()
		return p[1 : len(p)-1], nil
	}
}

// remap runs req through the active Stream's pump, which drains and
// requeues the in-flight frames around it, or directly when no stream is
// active (the engine is quiesced between Process calls).
func (e *Engine) remap(req remapReq) error {
	if s := e.stream.Load(); s != nil {
		return s.remap(req)
	}
	start := time.Now()
	root := e.startRemapSpan(req, "epoch")
	err := e.applyPlace(req, root)
	finishRemapSpan(root, start, err)
	return err
}

// applyPlace runs req's step on the quiesced engine (no frames in flight)
// under root and installs the segment it yields, updating the remap
// metrics. On error the previous segment stays live.
func (e *Engine) applyPlace(req remapReq, root *span.S) error {
	start := time.Now()
	seg, err := req.step(root)
	if err != nil {
		root.SetStr("error", err.Error())
		return err
	}
	e.path = append(e.path[:0:0], seg...)
	e.assignStages()
	elapsed := time.Since(start)
	e.mu.Lock()
	e.m.RemapTime += elapsed
	if req.op == opInject {
		e.m.FaultsInjected++
	}
	e.m.Remaps++
	if e.mgr != nil {
		e.m.Repairs = e.mgr.Stats()
	}
	e.mu.Unlock()
	e.remapLat[req.op].ObserveDuration(elapsed)
	e.procsInUse.Set(int64(len(seg)))
	root.SetInt("procs", int64(len(seg)))
	return nil
}

// startRemapSpan opens the root span of one remap (nil when tracing is
// off) under req.parent — the executor's replan span for placements, nil
// otherwise. mode is "epoch" (quiesced engine) or "stream" (live
// drain/requeue around the remap).
func (e *Engine) startRemapSpan(req remapReq, mode string) *span.S {
	sp := span.Start(req.parent, "remap").SetStr("op", opNames[req.op]).SetStr("mode", mode)
	if req.op != opReplan {
		sp.SetInt("node", int64(req.node))
	}
	if e.tenant != "" {
		sp.SetStr("tenant", e.tenant)
	}
	return sp
}

// finishRemapSpan feeds the SLO remap-latency objective and ends a root
// remap span through reconfig.EndRemap, which decides its status and
// whether the flight recorder trips.
func finishRemapSpan(root *span.S, start time.Time, err error) {
	if slo := span.DefaultSLO(); slo.Enabled() {
		slo.Observe("remap", time.Since(start))
	}
	reconfig.EndRemap(root, err)
}

// assignStages redistributes the logical stages contiguously over the
// current pipeline's processors.
func (e *Engine) assignStages() {
	L := e.ProcessorsInUse()
	S := len(e.stages)
	e.assign = make([][]int, L)
	for i := 0; i < L; i++ {
		lo := i * S / L
		hi := (i + 1) * S / L
		for s := lo; s < hi; s++ {
			e.assign[i] = append(e.assign[i], s)
		}
	}
	// When there are more processors than stages, trailing processors act
	// as pass-through relays (assign[i] empty) — they still carry the
	// stream, which is exactly the paper's model of a pipeline using all
	// healthy processors.
}

// Process streams the frames through the current mapping's worker chain
// in pooled frame batches and returns the transformed frames in order.
// Stages with internal state carry it across calls. Faults are injected
// between Process calls (epoch model).
//
// Input buffers stay caller-owned (the first worker copies them into
// pooled buffers), so callers may reuse the same input frames across
// calls. Output buffers come from the engine's pool; returning them via
// Recycle after use keeps the path allocation-free.
func (e *Engine) Process(frames []Frame) []Frame {
	// Sampled once per epoch: the per-frame clock reads below key off this
	// local, so a disabled registry costs no time.Now() calls in the loop.
	observing := e.reg.Enabled()
	var epochStart time.Time
	var starts []time.Time
	if observing {
		epochStart = time.Now()
		starts = make([]time.Time, len(frames))
	}

	c := e.newChain()
	go func() {
		for i := 0; i < len(frames); {
			n := len(frames) - i
			if n > e.batchSize {
				n = e.batchSize
			}
			b := e.getBatch()
			for j := 0; j < n; j++ {
				if observing {
					// Written before the send; the channel chain's
					// happens-before edges make it visible to the collector.
					starts[i+j] = time.Now()
				}
				f := frames[i+j]
				b.toks = append(b.toks, token{seq: f.Seq, data: f.Data})
			}
			e.batchOcc.Observe(int64(n))
			c.head <- b
			i += n
		}
		close(c.head)
	}()
	out := make([]Frame, 0, len(frames))
	for b := range c.tail {
		for i := range b.toks {
			t := b.toks[i]
			if observing {
				// Frames exit in input order, so out position == input index.
				e.frameLat.ObserveSince(starts[len(out)])
			}
			out = append(out, Frame{Seq: t.seq, Data: t.data})
		}
		e.putBatch(b)
	}
	e.frames.Add(int64(len(out)))
	e.framesTotal.Add(int64(len(out)))
	if observing {
		e.observeEpoch(frames, time.Since(epochStart))
	}
	return out
}

// ProcessSequential applies the stage chain to the frames on the calling
// goroutine — the reference implementation Process is tested against.
func (e *Engine) ProcessSequential(frames []Frame) []Frame {
	observing := e.reg.Enabled()
	var epochStart time.Time
	if observing {
		epochStart = time.Now()
	}
	out := make([]Frame, 0, len(frames))
	for _, f := range frames {
		var start time.Time
		if observing {
			start = time.Now()
		}
		data := f.Data
		for _, owned := range e.assign {
			for _, si := range owned {
				data = e.stages[si].Process(data)
			}
		}
		// Detach from the last stage's scratch. The reference path allocates
		// plainly on purpose: it is what the batched transport is audited
		// against, not part of the hot path.
		cp := make([]float64, len(data))
		copy(cp, data)
		out = append(out, Frame{Seq: f.Seq, Data: cp})
		if observing {
			e.frameLat.ObserveSince(start)
		}
	}
	e.frames.Add(int64(len(out)))
	e.framesTotal.Add(int64(len(out)))
	if observing {
		e.observeEpoch(frames, time.Since(epochStart))
	}
	return out
}

// observeEpoch records the epoch wall time and input throughput (bytes of
// float64 samples per second).
func (e *Engine) observeEpoch(frames []Frame, elapsed time.Duration) {
	e.epochTime.ObserveDuration(elapsed)
	if elapsed <= 0 {
		return
	}
	samples := 0
	for _, f := range frames {
		samples += len(f.Data)
	}
	e.epochTput.Set(int64(float64(samples*8) / elapsed.Seconds()))
}

// Faults returns a defensive copy of the currently injected fault set. A
// NewPlaced engine tracks no faults of its own (the pool fault set lives
// in the planner's manager); it reports an empty set.
func (e *Engine) Faults() bitset.Set {
	if e.mgr == nil {
		return bitset.New(e.g.NumNodes())
	}
	return e.mgr.Faults()
}
