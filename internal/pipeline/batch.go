package pipeline

// This file is the zero-allocation batched transport (ROADMAP item 3):
// frames move through the chain in frameBatch carriers instead of one
// channel send per frame per stage, and sample buffers and carriers come
// from (and return to) bounded engine-owned free lists. In steady state —
// producer leasing buffers with GetBuffer, consumer returning them with
// Recycle — the per-frame path performs zero heap allocations.
//
// Physical layout (DESIGN.md §12): a chain runs one worker per
// stage-bearing position. Relay positions fold into the worker after them
// and trailing relays into the last one, so they carry the stream without
// a goroutine or channel hop of their own; logical positions, and so the
// fault, placement and audit semantics, are unchanged.
//
// Buffer lifecycle (the ownership rules):
//
//   - Stream.Submit transfers ownership of Frame.Data to the stream: the
//     storage is processed in place and eventually recycled, so producers
//     must not retain a submitted slice. Epoch-mode Process does NOT take
//     ownership — callers may reuse the same input frames across calls.
//   - Stage outputs alias per-stage scratch, so a worker detaches each
//     processed frame: into the frame's own engine-owned buffer when it
//     fits, else into a pooled buffer (see processToken).
//   - Frames handed to the consumer (Stream.Out / Process return) own their
//     buffer. Returning it via Engine.Recycle closes the loop; dropping it
//     instead is safe but costs one pool miss later.

import (
	"sync"
	"sync/atomic"
	"time"

	"gdpn/internal/obs"
)

// Transport tuning defaults. DefaultChannelDepth preserves the chain's
// historical hardcoded depth (make(chan …, 4)).
const (
	DefaultBatchSize    = 8
	DefaultChannelDepth = 4
	maxBatchSize        = 1024
	defaultMaxPending   = 64
)

// Option tunes an Engine at construction time.
type Option func(*Engine)

// WithBatchSize sets how many frames ride one chain send (default
// DefaultBatchSize, clamped to [1, 1024]). 1 reproduces the per-frame
// transport. Values <= 0 are ignored so zero-valued configs keep the
// default.
func WithBatchSize(n int) Option {
	return func(e *Engine) {
		if n > maxBatchSize {
			n = maxBatchSize
		}
		if n >= 1 {
			e.batchSize = n
		}
	}
}

// WithChannelDepth sets the per-worker channel buffer, in batches
// (default DefaultChannelDepth — the old hardcoded depth). Values <= 0
// are ignored.
func WithChannelDepth(d int) Option {
	return func(e *Engine) {
		if d >= 1 {
			e.chanDepth = d
		}
	}
}

// freeList is a bounded, mutex-guarded stack of reusable items. Unlike
// sync.Pool it keeps what it is given (up to max) across GC cycles and
// processors: whether an item comes back is not a scheduling outcome.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
	max   int
}

func (l *freeList[T]) get() (x T, ok bool) {
	l.mu.Lock()
	if n := len(l.items) - 1; n >= 0 {
		x, ok = l.items[n], true
		clear(l.items[n:]) // the list must not pin what it handed out
		l.items = l.items[:n]
	}
	l.mu.Unlock()
	return x, ok
}

// put keeps x unless the list is full.
func (l *freeList[T]) put(x T) {
	l.mu.Lock()
	if len(l.items) < l.max {
		l.items = append(l.items, x)
	}
	l.mu.Unlock()
}

// reserve raises the bound to at least n.
func (l *freeList[T]) reserve(n int) {
	l.mu.Lock()
	l.max = max(l.max, n)
	l.mu.Unlock()
}

// bufPool recycles frame-sized sample buffers through a free list.
// hits/misses always count (they are the pool's own accounting, read by
// tests and the S3 experiment); the obs counters cost one atomic load
// when disabled.
type bufPool struct {
	free   freeList[[]float64]
	hits   atomic.Int64
	misses atomic.Int64
	hitC   *obs.Counter
	missC  *obs.Counter
}

// get leases a buffer of length n, reusing the most recently returned
// storage when it has the capacity.
func (p *bufPool) get(n int) []float64 {
	if b, ok := p.free.get(); ok && cap(b) >= n {
		p.hits.Add(1)
		p.hitC.Inc()
		return b[:n]
	}
	p.misses.Add(1)
	p.missC.Inc()
	return make([]float64, n)
}

// put returns a buffer's whole storage to the free list.
func (p *bufPool) put(b []float64) {
	if cap(b) > 0 {
		p.free.put(b[:cap(b)])
	}
}

// reserve bounds the free lists by the most buffers (or carriers) a
// stream with the given backlog bound holds at once — backlog, intake
// carriers (open, buffered, in hand-off), chain and a full Out — so its
// own population never overflows them. Nothing is allocated ahead of use.
func (e *Engine) reserve(maxPending int) {
	n := 2*(maxPending+e.maxInflight) + 4*e.batchSize
	e.pool.free.reserve(n)
	e.batches.reserve(n)
}

// GetBuffer leases an n-sample buffer from the engine's pool. Pairing it
// with Recycle on delivered frames makes a producer/consumer loop
// allocation-free in steady state. The buffer is ordinary memory — there
// is no obligation to submit it.
func (e *Engine) GetBuffer(n int) []float64 { return e.pool.get(n) }

// Recycle returns a delivered frame's buffer to the engine's pool. Only
// the consumer that received the frame may call it, and the slice must
// not be used afterwards.
func (e *Engine) Recycle(f Frame) { e.pool.put(f.Data) }

// PoolStats returns the buffer pool's lifetime hit and miss counts
// (also exported as pipeline_pool_total{result="hit"|"miss"}).
func (e *Engine) PoolStats() (hits, misses int64) {
	return e.pool.hits.Load(), e.pool.misses.Load()
}

// frameBatch carries up to Engine.batchSize tokens per chain send,
// amortizing channel synchronization across the whole batch.
type frameBatch struct {
	toks []token
}

func (e *Engine) getBatch() *frameBatch {
	if b, ok := e.batches.get(); ok {
		return b
	}
	return &frameBatch{toks: make([]token, 0, e.batchSize)}
}

func (e *Engine) putBatch(b *frameBatch) {
	clear(b.toks) // drop buffer references so the free list retains no frames
	b.toks = b.toks[:0]
	e.batches.put(b)
}

// newChain starts one worker per stage-bearing position of the current
// stage assignment (relays fold in; see above), wired by channels
// carrying frame batches.
func (e *Engine) newChain() *chain {
	var workers [][]int
	for _, owned := range e.assign {
		if len(owned) > 0 {
			workers = append(workers, owned)
		}
	}
	chans := make([]chan *frameBatch, len(workers)+1)
	for i := range chans {
		chans[i] = make(chan *frameBatch, e.chanDepth)
	}
	c := &chain{head: chans[0], tail: chans[len(workers)]}
	for w, owned := range workers {
		go e.batchWorker(c, chans[w], chans[w+1], owned)
	}
	return c
}

// batchWorker applies its positions' stages to every token of each batch
// and forwards the carrier; while the chain drains batches move through
// untouched.
func (e *Engine) batchWorker(c *chain, in <-chan *frameBatch, out chan<- *frameBatch, owned []int) {
	S := len(e.stages)
	for b := range in {
		if !c.draining.Load() {
			observing := e.reg.Enabled()
			var work time.Time
			if observing {
				work = time.Now()
			}
			for i := range b.toks {
				e.processToken(&b.toks[i], owned, S)
			}
			if observing {
				e.stageTime.ObserveSince(work)
				stall := time.Now()
				out <- b
				e.sendStall.ObserveSince(stall)
				continue
			}
		}
		out <- b
	}
	close(out)
}

// processToken runs the owned logical stages the token has not yet seen
// (t.next skips ones applied before a previous remap) and detaches the
// result from stage scratch.
func (e *Engine) processToken(t *token, owned []int, S int) {
	if t.next >= S {
		return
	}
	data := t.data
	processed := false
	for _, si := range owned {
		if si >= t.next {
			data = e.stages[si].Process(data)
			t.next = si + 1
			processed = true
		}
	}
	if !processed {
		return
	}
	// Stage outputs alias per-stage scratch, valid only until that stage
	// runs again — copy out before the next token reuses it. Stages never
	// retain their input, so an engine-owned buffer with room takes the
	// result in place (copy is a memmove: a stage returning its input is
	// safe). Caller-owned inputs and grown outputs move to a pool buffer.
	if t.owned && cap(t.data) >= len(data) {
		t.data = t.data[:len(data)]
		copy(t.data, data)
		return
	}
	nb := e.pool.get(len(data))
	copy(nb, data)
	if t.owned {
		e.pool.put(t.data)
	}
	t.data, t.owned = nb, true
}
