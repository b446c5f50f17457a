package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"gdpn/internal/chaos"
	"gdpn/internal/construct"
	"gdpn/internal/faults"
	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/pipeline"
	"gdpn/internal/reconfig"
	"gdpn/internal/stages"
	"gdpn/internal/verify"
)

// The single-engine workloads (steady, churn): one self-planned
// pipeline.Engine streaming through pipeline.Stream, fed by one producer
// goroutine and drained by one consumer goroutine.

// engineSpec describes one single-engine workload.
type engineSpec struct {
	samples int
	stages  func() []stages.Stage
	// windowEvents applies fault schedule event groups throughout the
	// timed window (churn). Without it the window's slices are fault-free
	// and the event groups run in remap probe bursts between them
	// (steady); each burst ends with every processor repaired.
	windowEvents bool
	warmFrames   int
}

// steadyStages is the cheap chain: the video chain without LZ78.
func steadyStages() []stages.Stage {
	return []stages.Stage{
		stages.NewSubsample(2),
		&stages.Rescale{Gain: 1.5, Offset: 0.1},
		stages.NewFIR([]float64{0.25, 0.5, 0.25}),
		stages.NewQuantize(-16, 16, 256),
	}
}

var engineSpecs = map[string]engineSpec{
	"steady": {samples: 64, stages: steadyStages, warmFrames: 20000},
	"churn":  {samples: 256, stages: chaos.DefaultStages, windowEvents: true, warmFrames: 4000},
}

// engineSession is one engine with its stream, producer and consumer.
type engineSession struct {
	spec   engineSpec
	ring   [][]float64
	traced bool
	hooks  hooks

	sol   *construct.Solution
	eng   *pipeline.Engine
	st    *pipeline.Stream
	sch   *faults.Schedule
	timed []*timedStage

	warmed   chan struct{} // closed by the producer once warm-up frames are in
	start    chan bool     // after warm-up: true runs on, false stops
	prodDone chan struct{} // closed when the producer returns
	consDone chan struct{} // closed when the consumer returns
	stop     atomic.Bool

	// probeTarget is the remap call count the probe runs up to. The
	// producer then runs the schedule on until no fault is left, so the
	// next slice streams through the full array, and signals probeDone.
	probeTarget atomic.Int64
	probeDone   chan struct{}

	// Read while the stream runs.
	delivered atomic.Int64
	submitNS  atomic.Int64
	outWaitNS atomic.Int64

	// Producer-owned; read after prodDone.
	submitted  int
	acct       account
	lat        []time.Duration
	probeCalls int
	probing    bool
	led        *ledger

	// Consumer-owned; read after consDone.
	dig       digest
	next      int
	gaps      int64
	repeats   int64
	consNotes []string
}

// hooks let the self-tests sabotage a run; nil fields leave it alone.
type hooks struct {
	// deliver sees every delivered frame before the consumer checks it;
	// returning false discards the frame.
	deliver func(f *pipeline.Frame) bool
	// path rewrites each placement the post-event invariant check sees.
	path func(graph.Path) graph.Path
}

// account is the operation ledger of one producer.
type account struct {
	events   int64 // schedule events applied or attempted
	rejected int64 // events the runtime refused within the k budget
	broken   int64 // post-event invariant violations
	dropped  uint64
	notes    []string
}

func (a *account) notef(format string, args ...any) {
	if len(a.notes) < 16 {
		a.notes = append(a.notes, fmt.Sprintf(format, args...))
	}
}

func startEngineSession(spec engineSpec, ring [][]float64, seed int64, traced bool, h hooks) (*engineSession, time.Duration, error) {
	t := time.Now()
	sol, err := construct.Design(poolN, poolK)
	if err != nil {
		return nil, 0, err
	}
	design := time.Since(t)
	stgs := spec.stages()
	var timed []*timedStage
	if traced {
		stgs, timed = wrapStages(stgs)
	}
	eng, err := pipeline.New(sol, stgs)
	if err != nil {
		return nil, 0, err
	}
	sch, err := faults.NewSchedule(sol.Graph, scheduleConfig(sol), seed)
	if err != nil {
		return nil, 0, err
	}
	st, err := eng.StartStream(pipeline.StreamConfig{})
	if err != nil {
		return nil, 0, err
	}
	s := &engineSession{
		spec: spec, ring: ring, traced: traced, hooks: h,
		sol: sol, eng: eng, st: st, sch: sch, timed: timed,
		warmed:    make(chan struct{}),
		start:     make(chan bool),
		probeDone: make(chan struct{}, 1),
		prodDone:  make(chan struct{}),
		consDone:  make(chan struct{}),
		led:       newLedger(),
		dig:       fnvOffset,
	}
	go s.consume()
	go s.produce()
	select {
	case <-s.warmed:
	case <-s.prodDone:
	}
	return s, design, nil
}

// release ends the producer's pause after warm-up: run on, or stop.
func (s *engineSession) release(run bool) {
	select {
	case s.start <- run:
	case <-s.prodDone:
	}
}

// produce is the closed-loop load generator: it submits the next frame as
// soon as the stream's backpressure admits it, and applies one fault
// schedule event group every groupEvery frames while events are due.
func (s *engineSession) produce() {
	defer close(s.prodDone)
	warm := s.spec.warmFrames
	for seq := 0; ; seq++ {
		if seq == warm {
			close(s.warmed)
			if !<-s.start {
				s.submitted = seq
				return
			}
		}
		if s.stop.Load() {
			s.submitted = seq
			return
		}
		if seq > warm && (seq-warm)%groupEvery == 0 {
			switch {
			case s.spec.windowEvents:
				s.applyGroup()
			case s.probing || int64(s.probeCalls) < s.probeTarget.Load():
				s.probing = true
				s.applyGroup()
				if int64(s.probeCalls) >= s.probeTarget.Load() && s.eng.Faults().Empty() {
					s.probing = false
					s.probeDone <- struct{}{}
				}
			}
		}
		in := s.ring[seq%len(s.ring)]
		d := s.eng.GetBuffer(len(in))
		copy(d, in)
		f := pipeline.Frame{Seq: seq, Data: d}
		var err error
		if s.traced {
			t := time.Now()
			err = s.st.Submit(f)
			s.submitNS.Add(int64(time.Since(t)))
		} else {
			err = s.st.Submit(f)
		}
		if err != nil {
			s.acct.notef("submit seq %d: %v", seq, err)
			s.submitted = seq
			return
		}
	}
}

// applyGroup applies the schedule's next event group, timing each call as
// the caller sees it, then re-proves graceful degradation.
func (s *engineSession) applyGroup() {
	evs := s.sch.Next()
	lat := make([]time.Duration, 0, len(evs))
	for _, ev := range evs {
		t := time.Now()
		var err error
		if ev.Repair {
			err = s.eng.Repair(ev.Node)
		} else {
			err = s.eng.Inject(ev.Node)
		}
		d := time.Since(t)
		lat = append(lat, d)
		s.acct.events++
		s.probeCalls++
		if err != nil {
			s.acct.rejected++
			s.acct.notef("%s rejected: %v", ev, err)
			s.sch.Deny(ev)
			continue
		}
		s.lat = append(s.lat, d)
	}
	if err := s.checkDegradation(); err != nil {
		s.acct.broken++
		s.acct.notef("after %s: %v", evs[0], err)
	}
	if s.traced {
		absorbSpans(s.led, &s.acct, lat)
	}
}

// checkDegradation verifies the live pipeline against the current fault
// set and checks that it runs through every healthy processor: the
// paper's degradation curve in count form.
func (s *engineSession) checkDegradation() error {
	g := s.sol.Graph
	f := s.eng.Faults()
	path := s.eng.Pipeline()
	if s.hooks.path != nil {
		path = s.hooks.path(append(graph.Path(nil), path...))
	}
	if err := verify.CheckPipeline(g, f, path); err != nil {
		return err
	}
	healthy := 0
	for _, p := range g.Processors() {
		if !f.Contains(p) {
			healthy++
		}
	}
	if used := len(path) - 2; used != healthy {
		return fmt.Errorf("%d processors in use, %d healthy", used, healthy)
	}
	return nil
}

// absorbSpans moves one event group's spans from the tracer's ring into
// the ledger, and counts any the ring evicted.
func absorbSpans(led *ledger, acct *account, lat []time.Duration) {
	tr := span.Default()
	spans := tr.Snapshot()
	if d := tr.Dropped(); d > 0 {
		acct.dropped += d
		acct.notef("span ring dropped %d spans", d)
	}
	tr.Reset()
	led.absorb(spans, lat)
}

// consume drains deliveries: it checks sequence continuity, folds each
// frame into the running digest and recycles its buffer.
func (s *engineSession) consume() {
	defer close(s.consDone)
	out := s.st.Out()
	for {
		var f pipeline.Frame
		var ok bool
		if s.traced {
			t := time.Now()
			f, ok = <-out
			s.outWaitNS.Add(int64(time.Since(t)))
		} else {
			f, ok = <-out
		}
		if !ok {
			return
		}
		if s.hooks.deliver != nil && !s.hooks.deliver(&f) {
			s.eng.Recycle(f)
			continue
		}
		switch {
		case f.Seq > s.next:
			s.gaps += int64(f.Seq - s.next)
			if len(s.consNotes) < 16 {
				s.consNotes = append(s.consNotes, fmt.Sprintf("frames %d..%d missing", s.next, f.Seq-1))
			}
		case f.Seq < s.next:
			s.repeats++
			if len(s.consNotes) < 16 {
				s.consNotes = append(s.consNotes, fmt.Sprintf("frame %d repeated or out of order", f.Seq))
			}
		}
		if f.Seq >= s.next {
			s.next = f.Seq + 1
		}
		s.dig = s.dig.fold(f.Seq, f.Data)
		s.eng.Recycle(f)
		s.delivered.Add(1)
	}
}

// finish stops the producer, flushes the stream and audits the session
// into p: stream ledger, consumer continuity and the digest against a
// sequential run of a fresh stage chain.
func (s *engineSession) finish(p *pass) {
	s.stop.Store(true)
	<-s.prodDone
	rep := s.st.Close()
	<-s.consDone

	p.ops += int64(s.submitted) + s.acct.events
	p.absorbAccount(&s.acct)
	if !rep.Clean() || rep.Submitted != int64(s.submitted) {
		p.failf(max(1, rep.Lost+rep.Duplicated+rep.OutOfOrder),
			"stream audit: submitted=%d (producer %d) delivered=%d lost=%d duplicated=%d out-of-order=%d",
			rep.Submitted, s.submitted, rep.Delivered, rep.Lost, rep.Duplicated, rep.OutOfOrder)
	}
	if s.next < s.submitted {
		s.gaps += int64(s.submitted - s.next)
		s.consNotes = append(s.consNotes, fmt.Sprintf("frames %d..%d never delivered", s.next, s.submitted-1))
	}
	if s.gaps+s.repeats > 0 {
		p.failf(s.gaps+s.repeats, "consumer: %d missing, %d repeated or out of order: %v", s.gaps, s.repeats, s.consNotes)
	}
	if want := referenceDigest(s.spec.stages(), s.ring, s.submitted); s.dig != want {
		p.failf(1, "digest %016x over %d frames, sequential reference %016x", uint64(s.dig), s.submitted, uint64(want))
	}
}

// runEngine runs one pass of a single-engine workload: reps timed
// set-ups, each through warm-up, one of which runs the timed window (and,
// when the window is fault-free, a remap probe burst after each of its
// slices).
func runEngine(cfg config, spec engineSpec, traced bool, window time.Duration, reps int) (*pass, error) {
	ring := inputRing(spec.samples, cfg.seed)
	p := &pass{}
	start := func() (*engineSession, time.Duration, error) {
		return startEngineSession(spec, ring, cfg.seed, traced, cfg.hooks)
	}
	if err := spareSetups(p, reps/2, start); err != nil {
		return nil, err
	}
	s, err := timedSetup(p, start)
	if err != nil {
		return nil, err
	}

	reg := obs.Default()
	if traced {
		reg.Reset()
		span.Default().Reset()
		reg.SetEnabled(true)
		span.Default().SetEnabled(true)
		defer reg.SetEnabled(false)
		defer span.Default().SetEnabled(false)
	}
	read := func() tally {
		t := readTally(s.delivered.Load(), reg)
		t.stageNS = stageNS(s.timed)
		t.submitNS, t.outWaitNS = s.submitNS.Load(), s.outWaitNS.Load()
		return t
	}
	var probe func()
	if !spec.windowEvents {
		probe = func() {
			s.probeTarget.Add(probeBurst)
			select {
			case <-s.probeDone:
			case <-s.prodDone:
			}
		}
	}
	s.release(true)
	p.timed(timeWindow(window, read, probe))
	p.rssMB = peakRSSMB()
	s.finish(p)
	p.remapLat = s.lat
	if traced {
		p.led = s.led
		p.readRemapPath(reg)
		p.repairs = s.eng.Metrics().Repairs
	}
	if err := spareSetups(p, reps-1-reps/2, start); err != nil {
		return nil, err
	}
	return p, nil
}

// session is a running workload instance: paused after warm-up until
// released, audited into a pass by finish.
type session interface {
	release(run bool)
	finish(p *pass)
}

// timedSetup starts one session and records its set-up time.
func timedSetup[S session](p *pass, start func() (S, time.Duration, error)) (S, error) {
	t := time.Now()
	s, design, err := start()
	if err != nil {
		return s, err
	}
	p.setup = append(p.setup, time.Since(t))
	p.design = append(p.design, design)
	return s, nil
}

// spareSetups times n more set-ups, audits each and tears it down. They
// are split around the measured session, so that setup_s, their median,
// does not hinge on one stretch of the run.
func spareSetups[S session](p *pass, n int, start func() (S, time.Duration, error)) error {
	for i := 0; i < n; i++ {
		s, err := timedSetup(p, start)
		if err != nil {
			return err
		}
		s.release(false)
		s.finish(p)
	}
	return nil
}

// pass is the outcome of one pass of a workload: its set-ups, its timed
// window, and its correctness audit.
type pass struct {
	ops, failed int64
	notes       []string

	setup, design []time.Duration // per set-up repetition

	slices   []tally // the window, about a second a slice
	total    tally   // the slices summed
	rssMB    float64
	remapLat []time.Duration // successful remap calls as the caller saw them

	// Traced passes only.
	led               *ledger
	memoHit, memoMiss int64
	warmHit, warmMiss int64
	repairs           reconfig.Stats
	moved             int64 // tenants moved, summed over replans
	bronzeTries       int64
	bronzeShed        int64
}

// timed records the window's slices and their sum.
func (p *pass) timed(window []tally) {
	p.slices = window
	for _, s := range window {
		p.total = p.total.add(s, 1)
	}
}

func (p *pass) failf(n int64, format string, args ...any) {
	p.failed += n
	if len(p.notes) < 32 {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

// absorbAccount folds a producer's event ledger into the pass.
func (p *pass) absorbAccount(a *account) {
	p.failed += a.rejected + a.broken + int64(a.dropped)
	for _, n := range a.notes {
		if len(p.notes) < 32 {
			p.notes = append(p.notes, n)
		}
	}
}

// readRemapPath reads the solver instruments once every remap is done.
func (p *pass) readRemapPath(reg *obs.Registry) {
	p.memoHit = reg.Counter("embed_memo_hit_total").Value()
	p.memoMiss = reg.Counter("embed_memo_miss_total").Value()
	p.warmHit = reg.Counter("embed_warm_total", obs.L("result", "hit")).Value()
	p.warmMiss = reg.Counter("embed_warm_total", obs.L("result", "miss")).Value()
}
