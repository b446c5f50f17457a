package main

import (
	_ "embed"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/control"
	"gdpn/internal/faults"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/pipeline"
	"gdpn/internal/plan"
	"gdpn/internal/verify"
)

// The tenants workload: the gold/silver/bronze topology on one shared
// G(12,3) pool run by a control.Executor. One producer submits to the
// tenants round-robin and applies one coordinated Inject/Repair event
// group every groupEvery submissions.

// tenantsJSON is a copy of the repository's mixed example topology, kept
// here so the workload does not move when the example does.
//
//go:embed tenants.json
var tenantsJSON []byte

// tenantsWarm is the number of submissions made during set-up.
const tenantsWarm = 3000

type tenantSession struct {
	traced bool
	hooks  hooks

	sol   *construct.Solution
	topo  *plan.Topology
	x     *control.Executor
	sch   *faults.Schedule
	rings [][][]float64

	warmed   chan struct{}
	start    chan bool
	prodDone chan struct{}
	stop     atomic.Bool

	// Read while the executor runs.
	accepted atomic.Int64
	submitNS atomic.Int64

	// Producer-owned; read after prodDone.
	seq         []int // next sequence number, per tenant
	acct        account
	lat         []time.Duration
	moved       int64
	bronzeTries int64
	bronzeShed  int64
	led         *ledger
}

func loadTenants() (*plan.Topology, error) { return plan.Parse(tenantsJSON) }

func startTenantSession(rings [][][]float64, seed int64, traced bool, h hooks) (*tenantSession, time.Duration, error) {
	topo, err := loadTenants()
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	sol, err := construct.Design(topo.Pool.N, topo.Pool.K)
	if err != nil {
		return nil, 0, err
	}
	design := time.Since(t)
	sch, err := faults.NewSchedule(sol.Graph, scheduleConfig(sol), seed)
	if err != nil {
		return nil, 0, err
	}
	x, err := control.New(sol, topo, control.Config{})
	if err != nil {
		return nil, 0, err
	}
	s := &tenantSession{
		traced: traced, hooks: h,
		sol: sol, topo: topo, x: x, sch: sch, rings: rings,
		warmed:   make(chan struct{}),
		start:    make(chan bool),
		prodDone: make(chan struct{}),
		seq:      make([]int, len(topo.Tenants)),
		led:      newLedger(),
	}
	go s.produce()
	select {
	case <-s.warmed:
	case <-s.prodDone:
	}
	return s, design, nil
}

func (s *tenantSession) release(run bool) {
	select {
	case s.start <- run:
	case <-s.prodDone:
	}
}

// produce submits to the tenants round-robin, closed loop: Gold and
// Silver block on backpressure, Bronze sheds at intake (policy, counted
// apart), and a shed tenant is skipped.
func (s *tenantSession) produce() {
	defer close(s.prodDone)
	tenants := s.topo.Tenants
	spare := make([][]float64, len(tenants)) // leased buffers not accepted yet
	for i := 0; ; i++ {
		if i == tenantsWarm {
			close(s.warmed)
			if !<-s.start {
				return
			}
		}
		if s.stop.Load() {
			return
		}
		if i > tenantsWarm && (i-tenantsWarm)%groupEvery == 0 {
			s.applyGroup()
		}
		ti := i % len(tenants)
		spec := &tenants[ti]
		d := spare[ti]
		if d == nil {
			d = s.x.GetBuffer(spec.Name, spec.FrameSamples)
		}
		spare[ti] = nil
		copy(d, s.rings[ti][s.seq[ti]%ringFrames])
		f := pipeline.Frame{Seq: s.seq[ti], Data: d}
		var err error
		if s.traced {
			t := time.Now()
			err = s.x.Submit(spec.Name, f)
			s.submitNS.Add(int64(time.Since(t)))
		} else {
			err = s.x.Submit(spec.Name, f)
		}
		bronze := spec.Class == plan.Bronze && i >= tenantsWarm
		if bronze {
			s.bronzeTries++
		}
		switch {
		case err == nil:
			s.seq[ti]++
			s.accepted.Add(1)
		case errors.Is(err, control.ErrBackpressure):
			if bronze {
				s.bronzeShed++
			}
			spare[ti] = d
		case errors.Is(err, control.ErrTenantShed):
			spare[ti] = d
		default:
			s.acct.notef("submit to %s: %v", spec.Name, err)
			return
		}
	}
}

// applyGroup applies the next event group as coordinated replans and
// re-proves the partition invariant.
func (s *tenantSession) applyGroup() {
	evs := s.sch.Next()
	lat := make([]time.Duration, 0, len(evs))
	for _, ev := range evs {
		t := time.Now()
		var res *control.ReplanResult
		var err error
		if ev.Repair {
			res, err = s.x.Repair(ev.Node)
		} else {
			res, err = s.x.Inject(ev.Node)
		}
		d := time.Since(t)
		lat = append(lat, d)
		s.acct.events++
		if err != nil {
			s.acct.rejected++
			s.acct.notef("%s rejected: %v", ev, err)
			s.sch.Deny(ev)
			continue
		}
		s.lat = append(s.lat, d)
		s.moved += int64(len(res.Affected) + len(res.Admitted) + len(res.Shed))
	}
	if err := s.checkPartition(); err != nil {
		s.acct.broken++
		s.acct.notef("after %s: %v", evs[0], err)
	}
	if s.traced {
		absorbSpans(s.led, &s.acct, lat)
	}
}

// checkPartition verifies that the running tenants' segments are valid,
// disjoint, and together run through every healthy processor.
func (s *tenantSession) checkPartition() error {
	g := s.sol.Graph
	f := s.x.Faults()
	owner := make(map[int]string)
	for name, seg := range s.x.Segments() {
		if s.hooks.path != nil {
			seg = s.hooks.path(seg)
		}
		if err := verify.CheckSegment(g, f, seg, seg); err != nil {
			return fmt.Errorf("tenant %s: %w", name, err)
		}
		for _, v := range seg {
			if prev, dup := owner[v]; dup {
				return fmt.Errorf("processor %d placed for both %s and %s", v, prev, name)
			}
			owner[v] = name
		}
	}
	healthy := 0
	for _, p := range g.Processors() {
		if !f.Contains(p) {
			healthy++
		}
	}
	if len(owner) != healthy {
		return fmt.Errorf("%d processors in use, %d healthy", len(owner), healthy)
	}
	return nil
}

// finish stops the producer, closes the executor (flushing every stream)
// and audits each tenant's lifetime sink ledger.
func (s *tenantSession) finish(p *pass) {
	s.stop.Store(true)
	<-s.prodDone
	reports := s.x.Close()
	p.ops += s.accepted.Load() + s.acct.events
	p.absorbAccount(&s.acct)
	for i, r := range reports {
		st := r.Stream
		if !st.Clean() || st.Submitted != int64(s.seq[i]) {
			p.failf(max(1, st.Lost+st.Duplicated+st.OutOfOrder),
				"tenant %s audit: submitted=%d (producer %d) delivered=%d lost=%d duplicated=%d out-of-order=%d",
				r.Tenant, st.Submitted, s.seq[i], st.Delivered, st.Lost, st.Duplicated, st.OutOfOrder)
		}
	}
}

// runTenants runs one pass of the tenants workload; see runEngine.
func runTenants(cfg config, traced bool, window time.Duration, reps int) (*pass, error) {
	topo, err := loadTenants()
	if err != nil {
		return nil, err
	}
	rings := make([][][]float64, len(topo.Tenants))
	for i, t := range topo.Tenants {
		rings[i] = inputRing(t.FrameSamples, cfg.seed+int64(i))
	}
	p := &pass{}
	start := func() (*tenantSession, time.Duration, error) {
		return startTenantSession(rings, cfg.seed, traced, cfg.hooks)
	}
	if err := spareSetups(p, reps/2, start); err != nil {
		return nil, err
	}
	s, err := timedSetup(p, start)
	if err != nil {
		return nil, err
	}

	reg := obs.Default()
	stageHist := reg.Histogram("pipeline_stage_ns")
	if traced {
		reg.Reset()
		span.Default().Reset()
		reg.SetEnabled(true)
		span.Default().SetEnabled(true)
		defer reg.SetEnabled(false)
		defer span.Default().SetEnabled(false)
	}
	read := func() tally {
		t := readTally(s.accepted.Load(), reg)
		// Stage kernels run inside the executor's engines, out of reach of
		// a wrapper; the engines' own per-batch kernel histogram stands in.
		t.stageNS = map[string]int64{"": stageHist.Sum()}
		t.submitNS = s.submitNS.Load()
		return t
	}
	s.release(true)
	p.timed(timeWindow(window, read, nil))
	p.rssMB = peakRSSMB()
	s.finish(p)
	p.remapLat = s.lat
	if traced {
		p.led = s.led
		p.readRemapPath(reg)
		p.moved = s.moved
		p.bronzeTries, p.bronzeShed = s.bronzeTries, s.bronzeShed
	}
	if err := spareSetups(p, reps-1-reps/2, start); err != nil {
		return nil, err
	}
	return p, nil
}
