package pipeline

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gdpn/internal/graph"
	"gdpn/internal/obs/span"
)

// This file is the continuous-streaming runtime: unlike Process, which
// runs one epoch at a time with faults injected only between epochs, a
// Stream keeps frames flowing while faults arrive and is engineered so
// that a live reconfiguration loses, duplicates, and reorders nothing.
//
// Mechanism. Frames travel the worker chain (see batch.go) as tokens
// that carry their stage progress (token.next = first logical stage not
// yet applied). When a remap arrives, the pump (1) flips the chain into
// draining mode — workers stop processing and pass tokens through
// untouched — and closes the head, so every in-flight token flushes out
// of the tail with its progress recorded; (2) applies the fault/repair on
// the now-quiesced engine, honoring the remap deadline with rollback to
// the last valid mapping; (3) requeues the unfinished tokens, oldest
// first, ahead of the backlog; and (4) rebuilds the chain over the new
// mapping, where each token resumes at exactly the stage it had reached.
// Because every stage processes frames in submission order exactly once,
// stateful stages (FIR, LZ78, …) stay bit-identical with an unfaulted
// run.
//
// Intake. Submit appends each frame to an open frameBatch carrier under
// a small intake mutex and hands the carrier to the pump whole, over a
// channel of carriers, once it holds min(batch, MaxPending) frames — or at
// once when the pump has flagged itself idle (chain and backlog empty), so
// a lone frame never waits. While the chain is empty the pump also takes a
// partial carrier itself, but only when no earlier carrier is still
// buffered or in transit, which keeps submission order. A frame pays for
// no channel operation and no select until it is in a batch, and the pump
// handles one message per batch.
//
// Pump. Each turn the pump tries single-case non-blocking operations in a
// fixed order — a remap request, the chain's tail, its head, the intake —
// and falls back to a blocking select only when none can proceed. Remaps
// go first, so a saturated stream cannot keep one waiting. A short batch
// enters only an empty chain (or one that is closing): under load every
// hop carries a full batch.
//
// Shutdown. Close marks the intake closed under the intake mutex, so every
// later Submit returns ErrStreamClosed, and sends a nil carrier as the end
// marker. Every hand-off is counted under the same mutex before it starts
// and uncounted by the pump when it arrives; the pump keeps receiving
// until the count is zero, takes the last open carrier, flushes the chain
// and only then exits. A frame for which Submit returned nil is never
// stranded.
//
// Backpressure. Submit blocks once the pump holds MaxPending frames and
// the hand-off channel is full — including for the whole of a remap
// stall — so a slow or paused pipeline pushes back on the producer
// instead of dropping. The sink checks sequence numbers against the exact
// submission order and counts any gap (lost), repeat (duplicated), or
// inversion (out-of-order); a clean run reports zeros and the
// pipeline_frame_loss gauge stays 0.

var (
	// ErrStreamActive is returned by StartStream when the engine already
	// has a live stream.
	ErrStreamActive = errors.New("pipeline: engine already has an active stream")
	// ErrStreamClosed is returned by Submit/Inject/Repair after Close.
	ErrStreamClosed = errors.New("pipeline: stream is closed")
	// ErrBackpressure is returned by TrySubmit when the stream's intake is
	// full: the frame was NOT accepted and the producer decides whether to
	// retry, drop, or shed.
	ErrBackpressure = errors.New("pipeline: stream intake full")
)

// StreamConfig configures a Stream.
type StreamConfig struct {
	// MaxPending bounds the frames the pump holds ahead of the processor
	// chain; beyond it, and one carrier in hand-off, Submit blocks
	// (backpressure) rather than dropping. Default 64.
	MaxPending int
}

// StreamReport is the stream's end-to-end accounting. In a correct run
// Lost, Duplicated, and OutOfOrder are all zero and Delivered equals
// Submitted (after Close).
type StreamReport struct {
	// Submitted counts frames the pump has taken in from Submit, a whole
	// carrier at a time; after Close it equals the frames for which
	// Submit or TrySubmit returned nil.
	Submitted int64 `json:"submitted"`
	// Delivered counts frames emitted on Out.
	Delivered int64 `json:"delivered"`
	// Requeued counts in-flight frames handed back across remaps (a frame
	// surviving several remaps counts once per requeue).
	Requeued int64 `json:"requeued"`
	// Lost counts submitted frames that never reached the sink.
	Lost int64 `json:"lost"`
	// Duplicated counts sink arrivals with no matching submission.
	Duplicated int64 `json:"duplicated"`
	// OutOfOrder counts sink arrivals that did not strictly increase.
	OutOfOrder int64 `json:"out_of_order"`
	// Remaps counts successful live reconfigurations; RemapFailures the
	// rejected ones (deadline rollbacks, beyond-budget fault sets).
	Remaps        int64 `json:"remaps"`
	RemapFailures int64 `json:"remap_failures"`
	// TotalDowntime/MaxDowntime measure the stall windows: drain → remap →
	// chain rebuilt, during which no frame makes progress.
	TotalDowntime time.Duration `json:"total_downtime_ns"`
	MaxDowntime   time.Duration `json:"max_downtime_ns"`
}

// Clean reports whether the stream kept the zero-loss invariant: every
// submitted frame delivered exactly once, in order.
func (r StreamReport) Clean() bool {
	return r.Lost == 0 && r.Duplicated == 0 && r.OutOfOrder == 0 && r.Submitted == r.Delivered
}

// token is a frame in flight, annotated with its stage progress so a
// drained frame can resume on a new mapping without repeating or skipping
// a stage. owned reports whether data's storage belongs to the engine
// (false while it is still caller-owned, as in epoch-mode Process inputs).
type token struct {
	seq   int
	next  int // first logical stage index not yet applied
	data  []float64
	owned bool
}

// chain is one incarnation of the worker pipeline.
// Tokens travel it in pooled frameBatch carriers (see batch.go).
type chain struct {
	head     chan *frameBatch
	tail     chan *frameBatch
	draining atomic.Bool // workers pass batches through untouched when set
}

// remapReq is one remap: step runs on the quiesced engine under the root
// remap span and yields the new processor segment (see Engine.remap).
type remapReq struct {
	op     int // opInject, opRepair or opReplan
	node   int // the faulted or repaired node (op != opReplan)
	parent *span.S
	step   func(root *span.S) (graph.Path, error)
	reply  chan error
}

// Stream is a continuously running instance of the engine: frames go in
// via Submit or TrySubmit, come out via Out in submission order, and
// faults/repairs remap the pipeline live (route them through
// Engine.Inject / Repair).
//
// Submit and TrySubmit take frames from one producer at a time, with
// strictly increasing Frame.Seq: the order of the calls is the delivery
// order. Either may race with Close. A nil return means the frame will be
// delivered on Out exactly once and is counted in Report().Submitted;
// ErrStreamClosed (or ErrBackpressure from TrySubmit) means it was not
// accepted and its buffer stays with the caller. All other methods are
// safe for concurrent use.
type Stream struct {
	// Set by StartStream, read-only afterwards.
	e          *Engine
	maxPending int
	fill       int              // frames in a full carrier: min(batch, MaxPending)
	submitc    chan *frameBatch // intake → pump; nil is Close's end marker
	outc       chan Frame
	remapc     chan remapReq
	donec      chan struct{}

	// The producer writes the intake on every Submit; the padding keeps it
	// off the cache lines of the fields the pump reads and writes.
	_  [64]byte
	in intake
	_  [64]byte

	closeOnce sync.Once

	submitted, delivered, requeued atomic.Int64
	lost, duplicated, outOfOrder   atomic.Int64
	remaps, remapFailures          atomic.Int64
	totalDowntimeNS, maxDowntimeNS atomic.Int64

	// Pump-owned state (no locking: only the run goroutine touches it).
	// backlog and expect are head-indexed rings: popping advances the head
	// instead of reslicing, so the steady state reuses the same backing
	// arrays instead of reallocating them.
	backlog  []*frameBatch // carriers waiting to enter the chain; front = oldest
	backHead int
	pending  int   // frames in the backlog
	inflight int   // frames in the chain
	expect   []int // seqs submitted but not yet delivered, FIFO
	expHead  int
	requeue  []token // remap scratch, empty between remaps
	lastSeq  int     // last emitted seq, for the inversion check
	hasLast  bool
}

// intake is the producer side of a stream: the carrier Submit fills and
// the hand-off accounting that ordering and shutdown rely on.
type intake struct {
	mu     sync.Mutex
	open   *frameBatch // carrier being filled; never full between calls
	idle   bool        // set by the pump: chain and backlog empty, nothing queued
	closed bool        // set by Close: Submit returns ErrStreamClosed
	// queued counts carriers handed (or being handed) to submitc that the
	// pump has not received yet. Only the intake raises it, under mu; only
	// the pump lowers it. So a zero read under mu means no earlier carrier
	// is still on its way.
	queued atomic.Int64
}

// StartStream switches the engine into continuous streaming. Only one
// stream may be active at a time; Close it before starting another or
// calling Process.
func (e *Engine) StartStream(cfg StreamConfig) (*Stream, error) {
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = defaultMaxPending
	}
	// The pump admits at most e.maxInflight frames into the chain. Out is
	// sized so that the whole population (pending backlog plus chain
	// occupancy) fits; a slower consumer then backpressures naturally
	// through the chain to Submit.
	s := &Stream{
		e:          e,
		maxPending: cfg.MaxPending,
		fill:       min(e.batchSize, cfg.MaxPending),
		submitc:    make(chan *frameBatch, 1),
		outc:       make(chan Frame, cfg.MaxPending+e.maxInflight),
		remapc:     make(chan remapReq),
		donec:      make(chan struct{}),
	}
	if !e.stream.CompareAndSwap(nil, s) {
		return nil, ErrStreamActive
	}
	e.reserve(cfg.MaxPending)
	go s.run()
	return s, nil
}

// Submit queues one frame, blocking while the stream is full — including
// for the whole of a remap stall — and never dropping. Frames must carry
// strictly increasing Seq.
//
// Submit transfers ownership of f.Data to the stream: the buffer is
// processed in place, recycled through the engine's pool, and must not be
// retained or reused by the producer. Lease submission buffers with
// Engine.GetBuffer (and return delivered ones with Engine.Recycle) to
// stream without per-frame allocations.
func (s *Stream) Submit(f Frame) error { return s.submit(f, true) }

// TrySubmit queues one frame like Submit but never blocks: when the frame
// would fill the open carrier and the carrier cannot be handed to the
// pump without blocking, it returns ErrBackpressure and the frame is NOT
// accepted — ownership of f.Data stays with the caller. The control plane
// uses it to shed low-SLO-class tenants' traffic instead of stalling
// their producers.
func (s *Stream) TrySubmit(f Frame) error { return s.submit(f, false) }

// submit appends f to the open carrier and hands the carrier over when it
// is full or the pump is idle; only a full carrier's hand-off may block.
func (s *Stream) submit(f Frame, block bool) error {
	in := &s.in
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return ErrStreamClosed
	}
	b := in.open
	if b == nil {
		b = s.e.getBatch()
		in.open = b
	}
	b.toks = append(b.toks, token{seq: f.Seq, data: f.Data, owned: true})
	if len(b.toks) < s.fill && !in.idle {
		in.mu.Unlock()
		return nil
	}
	in.queued.Add(1)
	select {
	case s.submitc <- b:
		in.open, in.idle = nil, false
		in.mu.Unlock()
		return nil
	default:
	}
	if !block {
		in.queued.Add(-1)
		b.toks[len(b.toks)-1] = token{}
		b.toks = b.toks[:len(b.toks)-1]
		in.mu.Unlock()
		return ErrBackpressure
	}
	// Counted in queued, so neither the pump's idle take nor its shutdown
	// can overtake this carrier; the send itself must not hold the lock.
	in.open, in.idle = nil, false
	in.mu.Unlock()
	s.submitc <- b
	return nil
}

// Out returns the delivery channel. Frames appear in submission order;
// the channel closes after Close has flushed everything.
func (s *Stream) Out() <-chan Frame { return s.outc }

// Close ends the stream: the backlog and every in-flight frame are
// flushed through the pipeline, Out is closed, and the final report is
// returned. Idempotent. A Submit racing Close either returns nil, and its
// frame is flushed with the rest, or returns ErrStreamClosed.
func (s *Stream) Close() StreamReport {
	s.closeOnce.Do(func() {
		s.in.mu.Lock()
		s.in.closed = true
		s.in.queued.Add(1)
		s.in.mu.Unlock()
		s.submitc <- nil
	})
	<-s.donec
	s.e.stream.CompareAndSwap(s, nil)
	return s.Report()
}

// Report returns a snapshot of the stream's accounting; after Close it is
// the final report.
func (s *Stream) Report() StreamReport {
	return StreamReport{
		Submitted:     s.submitted.Load(),
		Delivered:     s.delivered.Load(),
		Requeued:      s.requeued.Load(),
		Lost:          s.lost.Load(),
		Duplicated:    s.duplicated.Load(),
		OutOfOrder:    s.outOfOrder.Load(),
		Remaps:        s.remaps.Load(),
		RemapFailures: s.remapFailures.Load(),
		TotalDowntime: time.Duration(s.totalDowntimeNS.Load()),
		MaxDowntime:   time.Duration(s.maxDowntimeNS.Load()),
	}
}

// remap asks the pump to run req between frames. It returns the step's
// error (nil on success, reconfig.ErrDeadline-wrapped on a rolled-back
// remap).
func (s *Stream) remap(req remapReq) error {
	req.reply = make(chan error, 1)
	select {
	case s.remapc <- req:
		return <-req.reply
	case <-s.donec:
		return ErrStreamClosed
	}
}

// expectLen is the live length of the expect ring.
func (s *Stream) expectLen() int { return len(s.expect) - s.expHead }

// push appends x to the head-indexed ring *r (live part (*r)[*head:]),
// compacting it first when append would otherwise grow the backing array
// past dead head entries.
func push[T any](r *[]T, head *int, x T) {
	if *head > 0 && len(*r) == cap(*r) {
		n := copy(*r, (*r)[*head:])
		clear((*r)[n:])
		*r, *head = (*r)[:n], 0
	}
	*r = append(*r, x)
}

// receive takes one carrier from submitc, reporting Close's end marker.
func (s *Stream) receive(b *frameBatch) (end bool) {
	s.in.queued.Add(-1)
	if b == nil {
		return true
	}
	s.accept(b)
	return false
}

// accept takes ownership of a carrier of submitted frames.
func (s *Stream) accept(b *frameBatch) {
	if len(b.toks) == 0 {
		s.e.putBatch(b)
		return
	}
	for i := range b.toks {
		push(&s.expect, &s.expHead, b.toks[i].seq)
	}
	push(&s.backlog, &s.backHead, b)
	s.pending += len(b.toks)
	s.submitted.Add(int64(len(b.toks)))
}

// takeOpen accepts the intake's open carrier when no earlier carrier is
// still on its way, reporting whether it took any frames. When there is
// nothing to take, it sets the intake's idle flag to idle.
func (s *Stream) takeOpen(idle bool) bool {
	in := &s.in
	in.mu.Lock()
	if in.queued.Load() != 0 {
		in.mu.Unlock()
		return false
	}
	b := in.open
	if b == nil || len(b.toks) == 0 {
		in.idle = idle
		in.mu.Unlock()
		return false
	}
	in.open, in.idle = nil, false
	in.mu.Unlock()
	s.accept(b)
	return true
}

// ready returns the backlog's front carrier if it may enter the chain:
// the chain has room, and the carrier is full, has others behind it (a
// requeue's short last carrier must not hold them up), would enter an
// empty chain, or the stream is closing.
func (s *Stream) ready(closing bool) *frameBatch {
	if s.pending == 0 || s.inflight >= s.e.maxInflight {
		return nil
	}
	b := s.backlog[s.backHead]
	if len(b.toks) >= s.fill || s.inflight == 0 || closing || len(s.backlog)-s.backHead > 1 {
		return b
	}
	return nil
}

// admit pops the front carrier, which the chain head has taken.
func (s *Stream) admit(b *frameBatch) {
	s.backlog[s.backHead] = nil
	s.backHead++
	if s.backHead == len(s.backlog) {
		s.backlog, s.backHead = s.backlog[:0], 0
	}
	n := len(b.toks)
	s.pending -= n
	s.inflight += n
	s.e.batchOcc.Observe(int64(n))
}

// sink delivers a carrier that left the chain's tail.
func (s *Stream) sink(b *frameBatch) {
	s.inflight -= len(b.toks)
	s.deliver(b.toks)
	s.e.putBatch(b)
}

// run is the pump: the single goroutine that feeds the chain head, drains
// the tail, and serializes remaps against frame movement.
func (s *Stream) run() {
	defer close(s.donec)
	c := s.e.newChain()
	closing, intakeDone := false, false
	for {
		if closing && !intakeDone && s.in.queued.Load() == 0 {
			// Submit refuses new frames and every counted hand-off has
			// arrived: the open carrier holds the last accepted frames.
			s.takeOpen(false)
			intakeDone = true
		}
		if intakeDone && s.pending == 0 && s.inflight == 0 {
			break
		}
		// Fast path: single-case non-blocking operations, remaps first.
		select {
		case req := <-s.remapc:
			c = s.handleRemap(c, req)
			continue
		default:
		}
		select {
		case b := <-c.tail:
			s.sink(b)
			continue
		default:
		}
		nb := s.ready(closing)
		if nb != nil {
			select {
			case c.head <- nb:
				s.admit(nb)
				continue
			default:
			}
		}
		// A carrier holds at most fill frames, so taking one never lifts
		// the backlog past MaxPending (fill <= MaxPending).
		var submitc chan *frameBatch
		if !intakeDone && (closing || s.pending+s.fill <= s.maxPending) {
			submitc = s.submitc
			select {
			case b := <-submitc:
				closing = s.receive(b) || closing
				continue
			default:
			}
		}
		// Nothing moved. An empty pump takes a partial carrier itself or
		// flags itself idle, so the next Submit hands its carrier over.
		if !closing && s.pending == 0 && s.inflight == 0 && s.takeOpen(true) {
			continue
		}
		// Slow path: wait for whichever can move first.
		var headc chan *frameBatch
		if nb != nil {
			headc = c.head
		}
		select {
		case req := <-s.remapc:
			c = s.handleRemap(c, req)
		case b := <-c.tail:
			s.sink(b)
		case headc <- nb:
			s.admit(nb)
		case b := <-submitc:
			closing = s.receive(b) || closing
		}
	}
	close(c.head)
	for range c.tail {
		// inflight is zero, so nothing should arrive; drain defensively so
		// the workers can always exit.
	}
	// Anything still expected was never delivered: lost (zero when clean).
	s.lost.Add(int64(s.expectLen()))
	s.e.frameLoss.Set(int64(s.expectLen()))
	if n := s.expectLen(); n > 0 {
		span.Trip(span.AnomalyFrameLoss, fmt.Sprintf("stream closed with %d undelivered frames", n))
	}
	close(s.outc)
}

// handleRemap is the zero-loss live reconfiguration: drain, remap (or
// roll back), requeue, rebuild. Returns the new chain.
func (s *Stream) handleRemap(c *chain, req remapReq) *chain {
	e := s.e
	start := time.Now()
	root := e.startRemapSpan(req, "stream")
	// 1. Drain: stop processing and flush every in-flight token out of the
	// old mapping with its progress recorded.
	drain := span.Start(root, "drain")
	drained := s.inflight
	c.draining.Store(true)
	close(c.head)
	// In-flight batches explode back to individual frames here: each token
	// already carries its stage progress, so batching is invisible to the
	// drain/requeue contract.
	requeue := s.requeue[:0]
	for b := range c.tail {
		s.inflight -= len(b.toks)
		done := b.toks[:0]
		for _, t := range b.toks {
			if t.next >= len(e.stages) {
				done = append(done, t) // finished before the drain caught it
			} else {
				requeue = append(requeue, t)
			}
		}
		s.deliver(done)
		e.putBatch(b)
	}
	// Tokens leave the chain oldest-first already; sort defensively — the
	// requeue MUST resume in submission order or stateful stages corrupt.
	slices.SortFunc(requeue, func(a, b token) int { return cmp.Compare(a.seq, b.seq) })
	nr := len(requeue)
	drain.SetInt("inflight", int64(drained)).SetInt("unfinished", int64(nr))
	drain.End(span.OK)
	// 2. Remap on the quiesced engine. On error (deadline rollback,
	// beyond-budget fault, invalid segment) the previous mapping is still
	// in place and the chain below simply restarts over it.
	err := e.applyPlace(req, root)
	if err != nil {
		s.remapFailures.Add(1)
	} else {
		s.remaps.Add(1)
	}
	// 3. Requeue unfinished frames ahead of the backlog, which is
	// re-packed into full carriers behind them.
	rq := span.Start(root, "requeue")
	if nr > 0 {
		for _, b := range s.backlog[s.backHead:] {
			requeue = append(requeue, b.toks...)
			e.putBatch(b)
		}
		clear(s.backlog)
		s.backlog, s.backHead = s.backlog[:0], 0
		for rest := requeue; len(rest) > 0; {
			n := min(len(rest), e.batchSize)
			b := e.getBatch()
			b.toks = append(b.toks, rest[:n]...)
			s.backlog = append(s.backlog, b)
			rest = rest[n:]
		}
		s.pending = len(requeue)
		s.requeued.Add(int64(nr))
		e.framesRequeued.Add(int64(nr))
	}
	clear(requeue) // the scratch must not pin frame buffers
	s.requeue = requeue[:0]
	rq.SetInt("frames", int64(nr))
	rq.End(span.OK)
	// 4. Rebuild the chain over the (possibly rolled-back) mapping.
	rw := span.Start(root, "rewire")
	nc := e.newChain()
	rw.SetInt("positions", int64(len(e.assign)))
	rw.End(span.OK)
	d := time.Since(start)
	s.totalDowntimeNS.Add(int64(d))
	for {
		cur := s.maxDowntimeNS.Load()
		if int64(d) <= cur || s.maxDowntimeNS.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	e.remapDowntime.ObserveDuration(d)
	// With the chain empty every undelivered frame must be queued; the
	// difference is the loss gauge, and it must read zero.
	loss := int64(s.expectLen() - s.pending)
	e.frameLoss.Set(loss)
	root.SetInt("downtime_ns", int64(d))
	finishRemapSpan(root, start, err)
	if loss > 0 {
		span.Trip(span.AnomalyFrameLoss, fmt.Sprintf("remap audit: %d frames unaccounted for", loss))
	}
	req.reply <- err
	return nc
}

// deliver emits finished tokens in order, counting them once for the
// whole run of tokens.
func (s *Stream) deliver(toks []token) {
	n := int64(len(toks))
	s.delivered.Add(n)
	s.e.frames.Add(n)
	s.e.framesTotal.Add(n)
	for i := range toks {
		s.emit(toks[i])
	}
}

// emit delivers one finished token, checking it against the exact
// submission order: any gap is loss, any unmatched arrival duplication,
// any non-increasing seq an inversion.
func (s *Stream) emit(t token) {
	if s.hasLast && t.seq <= s.lastSeq {
		s.outOfOrder.Add(1)
	}
	s.hasLast, s.lastSeq = true, t.seq
	matched := false
	for s.expHead < len(s.expect) && s.expect[s.expHead] <= t.seq {
		if s.expect[s.expHead] == t.seq {
			s.expHead++
			matched = true
			break
		}
		s.expHead++
		s.lost.Add(1)
		span.Trip(span.AnomalyFrameLoss, fmt.Sprintf("sink audit: gap before seq %d", t.seq))
	}
	if s.expHead == len(s.expect) {
		s.expect, s.expHead = s.expect[:0], 0
	}
	if !matched {
		s.duplicated.Add(1)
		span.Trip(span.AnomalyFrameLoss, fmt.Sprintf("sink audit: unmatched arrival seq %d", t.seq))
	}
	// The consumer owns the delivered buffer from here (Engine.Recycle
	// returns it to the pool).
	s.outc <- Frame{Seq: t.seq, Data: t.data}
}
