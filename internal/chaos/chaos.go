// Package chaos is the soak harness: it runs a topology on a
// control.Executor under a seeded stochastic fault/repair schedule
// (internal/faults.Schedule) while every tenant streams frames
// continuously, and checks the paper's graceful-degradation guarantee as
// a *runtime* property rather than a theorem:
//
//   - zero frame loss, zero duplication, in-order delivery per tenant
//     across every coordinated replan, shed and readmission (the
//     congested-clique "no work lost across recoveries" invariant);
//   - after every event the pool's pipeline is a valid certificate
//     (verify.CheckPipeline) and the running placements partition the
//     healthy processors — disjoint valid segments (verify.CheckSegment)
//     whose union is every healthy processor. The paper's graceful
//     degradation, re-proved at each step of an ongoing fault process
//     rather than for a one-shot fault set.
//
// A single pipeline is a one-tenant topology: with a nil Config.Topology
// the soak runs one gold tenant on the whole pool.
//
// Runs are seeded and replayable: a failing nightly seed reruns locally
// with `gdpsim -chaos -seed N` and reproduces the same fault sequence.
package chaos

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/control"
	"gdpn/internal/embed"
	"gdpn/internal/faults"
	"gdpn/internal/graph"
	"gdpn/internal/obs"
	"gdpn/internal/obs/span"
	"gdpn/internal/pipeline"
	"gdpn/internal/plan"
	"gdpn/internal/reconfig"
	"gdpn/internal/stages"
	"gdpn/internal/verify"
	"gdpn/internal/workload"
)

// maxRecordedViolations caps the violation strings kept in a Report;
// further violations are counted but summarized.
const maxRecordedViolations = 32

// Config parameterizes one soak run. The zero value is usable.
type Config struct {
	// Topology declares the tenants (validated by plan.Parse). nil runs a
	// one-tenant topology over the solution's pool: one gold tenant with
	// plan.DefaultStages(), FrameSamples and MaxPending.
	Topology *plan.Topology
	// Control configures the executor. Its Context cancels the soak
	// early: event sleeps wake immediately, an in-flight replan solve is
	// abandoned (and rolled back), and Run drains every stream and
	// returns a partial Report with Interrupted set.
	Control control.Config
	// Seed makes the run replayable (fault schedule and workload).
	Seed int64
	// Duration is the wall-clock soak length. Default 10s.
	Duration time.Duration
	// MTBF / MTTR are the processor-class failure/repair means.
	// Defaults 3s / 800ms.
	MTBF, MTTR time.Duration
	// TerminalMTBF / TerminalMTTR enable terminal-class faults (0 = off).
	TerminalMTBF, TerminalMTTR time.Duration
	// BurstProb upgrades a fault into a correlated burst of up to MaxBurst
	// simultaneous faults (budget permitting). Defaults 0 / design k.
	BurstProb float64
	MaxBurst  int
	// FrameSamples / MaxPending size the one-tenant topology's frames
	// (default 1024) and stream backlog (default 64); a declared Topology
	// carries its own.
	FrameSamples int
	MaxPending   int
	// RemapDeadline bounds each pool remap; a solve that misses it rolls
	// back to the last valid pipeline and the fault is retried later.
	// 0 = off.
	RemapDeadline time.Duration
	// Logf, when non-nil, narrates events live (fault/repair/rollback).
	Logf func(format string, args ...any)
}

// Report is the end-of-run invariant report.
type Report struct {
	// Stream sums the tenants' zero-loss ledgers (lost/duplicated/
	// out-of-order must be zero, delivered must equal submitted).
	Stream pipeline.StreamReport `json:"stream"`
	// Tenants are the per-tenant lifetime reports, topology order.
	Tenants []control.TenantReport `json:"tenants"`
	// Downtime is the pool manager's per-tactic ledger.
	Downtime reconfig.DowntimeStats `json:"downtime"`
	// Elapsed is the achieved wall-clock run length.
	Elapsed time.Duration `json:"elapsed_ns"`
	// FaultsInjected / RepairsApplied count applied schedule events;
	// Bursts counts multi-fault batches.
	FaultsInjected int `json:"faults_injected"`
	RepairsApplied int `json:"repairs_applied"`
	Bursts         int `json:"bursts"`
	// DeadlineRollbacks counts replans rolled back for missing the
	// deadline (retried later by the schedule); OtherFailures counts
	// unexpected replan errors — any of those is also recorded as a
	// violation.
	DeadlineRollbacks int `json:"deadline_rollbacks"`
	OtherFailures     int `json:"other_failures"`
	// Replans counts fault-driven coordinated replans (the bootstrap plan
	// is excluded); MaxTenantsRemapped is the most tenants one replan
	// moved — ≥2 proves cross-tenant coordination actually happened.
	Replans            int64 `json:"replans"`
	MaxTenantsRemapped int   `json:"max_tenants_remapped"`
	// Checks counts invariant checks; Violations records the failures
	// (capped at maxRecordedViolations, then counted).
	Checks          int      `json:"checks"`
	Violations      []string `json:"violations,omitempty"`
	TotalViolations int      `json:"total_violations"`
	// FinalFaults / FinalProcsInUse snapshot the end state.
	FinalFaults     []int `json:"final_faults"`
	FinalProcsInUse int   `json:"final_procs_in_use"`
	// SubmitShed totals Bronze frames dropped at intake across tenants
	// (policy, not loss — they never entered a stream).
	SubmitShed int64 `json:"submit_shed"`
	// Interrupted reports that the context canceled the soak before
	// Duration elapsed; the invariants above cover the partial run, which
	// is still a meaningful audit (every delivered frame was checked).
	Interrupted bool `json:"interrupted,omitempty"`
}

func (r *Report) violate(format string, args ...any) {
	r.TotalViolations++
	msg := fmt.Sprintf(format, args...)
	span.Trip(span.AnomalyInvariant, msg)
	if len(r.Violations) < maxRecordedViolations {
		r.Violations = append(r.Violations, msg)
	}
}

// OK reports whether every invariant held: clean streams and no
// verification violations (an unclean tenant is itself a violation).
func (r *Report) OK() bool {
	return r.Stream.Clean() && r.TotalViolations == 0
}

// Summary renders the multi-line invariant report printed at the end of a
// soak run.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: %v elapsed, %d tenants\n", r.Elapsed.Round(time.Millisecond), len(r.Tenants))
	for _, t := range r.Tenants {
		state := "running"
		if !t.Running {
			state = "shed"
			if t.ShedReason != "" {
				state = "shed (" + t.ShedReason + ")"
			}
		}
		fmt.Fprintf(&b, "  tenant %-12s %-6s %-18s procs=%-2d incarnations=%d submitted=%d delivered=%d remaps=%d shed-at-intake=%d\n",
			t.Tenant, t.Class, state, t.Procs, t.Incarnations,
			t.Stream.Submitted, t.Stream.Delivered, t.Stream.Remaps, t.SubmitShed)
	}
	fmt.Fprintf(&b, "  frames:     submitted=%d delivered=%d requeued=%d lost=%d duplicated=%d out-of-order=%d\n",
		r.Stream.Submitted, r.Stream.Delivered, r.Stream.Requeued,
		r.Stream.Lost, r.Stream.Duplicated, r.Stream.OutOfOrder)
	fmt.Fprintf(&b, "  faults:     injected=%d repaired=%d bursts=%d deadline-rollbacks=%d other-failures=%d\n",
		r.FaultsInjected, r.RepairsApplied, r.Bursts, r.DeadlineRollbacks, r.OtherFailures)
	fmt.Fprintf(&b, "  replans:    %d coordinated, max tenants moved by one replan=%d\n",
		r.Replans, r.MaxTenantsRemapped)
	fmt.Fprintf(&b, "  remaps:     ok=%d failed=%d downtime total=%v max=%v rollback-time=%v\n",
		r.Stream.Remaps, r.Stream.RemapFailures,
		r.Stream.TotalDowntime.Round(time.Microsecond), r.Stream.MaxDowntime.Round(time.Microsecond),
		r.Downtime.RollbackTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "  tactics:    ")
	for t := reconfig.NoChange; t <= reconfig.FullRemap; t++ {
		if d := r.Downtime.PerTactic[t]; d > 0 {
			fmt.Fprintf(&b, "%s=%v ", t, d.Round(time.Microsecond))
		}
	}
	fmt.Fprintf(&b, "\n  invariants: checks=%d violations=%d (valid pool pipeline and placements partitioning every healthy processor after every event, no loss, no duplication)\n",
		r.Checks, r.TotalViolations)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "    VIOLATION: %s\n", v)
	}
	if extra := r.TotalViolations - len(r.Violations); extra > 0 {
		fmt.Fprintf(&b, "    ... and %d more\n", extra)
	}
	fmt.Fprintf(&b, "  end state:  faults=%v procs-in-use=%d\n", r.FinalFaults, r.FinalProcsInUse)
	if r.OK() {
		b.WriteString("  RESULT: PASS — zero frame loss, zero duplication, graceful degradation held\n")
	} else {
		b.WriteString("  RESULT: FAIL\n")
	}
	return b.String()
}

// DefaultStages returns a fresh instance of the video-style stage chain,
// plan.DefaultStages(), that the one-tenant soak (and gdpsim) pushes
// frames through.
func DefaultStages() []stages.Stage {
	stgs, err := (&plan.TenantSpec{Stages: plan.DefaultStages()}).BuildStages()
	if err != nil {
		panic("chaos: default stage chain does not build: " + err.Error())
	}
	return stgs
}

// oneTenant is the topology of a single pipeline on the whole pool.
func oneTenant(sol *construct.Solution, cfg Config) (*plan.Topology, error) {
	samples := cfg.FrameSamples
	if samples <= 0 {
		samples = 1024
	}
	topo := &plan.Topology{
		Pool: plan.PoolSpec{N: sol.N, K: sol.K},
		Tenants: []plan.TenantSpec{{
			Name:         "soak",
			Class:        plan.Gold,
			FrameSamples: samples,
			MaxPending:   cfg.MaxPending,
			Stages:       plan.DefaultStages(),
		}},
	}
	return topo, topo.Validate()
}

// Run executes one soak: per-tenant continuous traffic through a
// control.Executor, scheduled pool faults driving coordinated replans,
// an invariant check after every event group, and a final zero-loss
// audit. The returned error covers setup problems only; invariant
// failures land in the Report.
func Run(sol *construct.Solution, cfg Config) (*Report, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.MTBF <= 0 {
		cfg.MTBF = 3 * time.Second
	}
	if cfg.MTTR <= 0 {
		cfg.MTTR = 800 * time.Millisecond
	}
	if cfg.MaxBurst <= 0 {
		cfg.MaxBurst = sol.K
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	topo := cfg.Topology
	if topo == nil {
		var err error
		if topo, err = oneTenant(sol, cfg); err != nil {
			return nil, err
		}
	}

	sch, err := faults.NewSchedule(sol.Graph, faults.ScheduleConfig{
		MTBF:         cfg.MTBF,
		MTTR:         cfg.MTTR,
		TerminalMTBF: cfg.TerminalMTBF,
		TerminalMTTR: cfg.TerminalMTTR,
		MaxFaults:    sol.K,
		BurstProb:    cfg.BurstProb,
		MaxBurst:     cfg.MaxBurst,
	}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	x, err := control.New(sol, topo, cfg.Control)
	if err != nil {
		return nil, err
	}
	x.Manager().SetDeadline(cfg.RemapDeadline)
	var ctxDone <-chan struct{}
	if cfg.Control.Context != nil {
		ctxDone = cfg.Control.Context.Done()
	}
	// sleep waits d (which may be ≤ 0) or until cancellation; false means
	// the soak was interrupted.
	sleep := func(d time.Duration) bool {
		t := time.NewTimer(max(d, 0))
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-ctxDone:
			return false
		}
	}
	injected := obs.Default().Counter("chaos_faults_injected_total")
	// The soak's own root span: schedule events attach to it as they are
	// applied, and it lands in the ring when the run finishes — a flight
	// dump mid-soak therefore carries the replan trees, while the soak
	// span itself shows up in end-of-run snapshots.
	soak := span.Start(nil, "soak")
	soak.SetInt("seed", cfg.Seed).SetInt("k", int64(sol.K)).SetInt("n", int64(sol.N)).
		SetInt("tenants", int64(len(topo.Tenants)))

	// One producer per tenant: continuous seq-numbered traffic. A shed
	// tenant's producer keeps polling (brief backoff) so readmission
	// resumes its stream; Bronze intake drops are policy, not loss, and
	// the dropped seq is reused for the next attempt.
	stop := make(chan struct{})
	var producerWG sync.WaitGroup
	for i := range topo.Tenants {
		producerWG.Add(1)
		go produce(x, &topo.Tenants[i], cfg.Seed+int64(i), stop, &producerWG)
	}

	rep := &Report{}
	start := time.Now()
	end := start.Add(cfg.Duration)
eventLoop:
	for {
		evs := sch.Next()
		at := start.Add(evs[0].At)
		if at.After(end) {
			rep.Interrupted = !sleep(time.Until(end))
			break
		}
		if !sleep(time.Until(at)) {
			rep.Interrupted = true
			break
		}
		if len(evs) > 1 {
			rep.Bursts++
		}
		for _, ev := range evs {
			var res *control.ReplanResult
			var err error
			if ev.Repair {
				res, err = x.Repair(ev.Node)
			} else {
				res, err = x.Inject(ev.Node)
			}
			switch {
			case err == nil:
				if ev.Repair {
					rep.RepairsApplied++
				} else {
					rep.FaultsInjected++
					injected.Inc()
				}
				soak.Eventf("apply", "%s affected=%d admitted=%d shed=%d", ev, len(res.Affected), len(res.Admitted), len(res.Shed))
				logf("chaos: %s replan gen=%d affected=%v admitted=%v shed=%v", ev, res.Gen, res.Affected, res.Admitted, res.Shed)
			case errors.Is(err, embed.ErrCanceled):
				// External cancellation aborted the replan mid-solve; the
				// event rolled back cleanly. Not a violation — end the soak.
				rep.Interrupted = true
				sch.Deny(ev)
				logf("chaos: %s ROLLED BACK (canceled): %v", ev, err)
				break eventLoop
			case errors.Is(err, reconfig.ErrDeadline):
				rep.DeadlineRollbacks++
				sch.Deny(ev)
				soak.Eventf("rollback", "%s deadline: %v", ev, err)
				logf("chaos: %s ROLLED BACK (deadline): %v", ev, err)
			default:
				// Within the k budget every event must replan; anything
				// else is itself an invariant violation.
				rep.OtherFailures++
				sch.Deny(ev)
				rep.violate("apply %s: %v", ev, err)
			}
		}
		rep.check(x, sol.Graph, evs[0].At)
	}

	close(stop)
	producerWG.Wait()
	rep.FinalFaults = x.Faults().Slice()
	rep.FinalProcsInUse = rep.check(x, sol.Graph, time.Since(start))
	rep.Downtime = x.Manager().Downtime()
	rep.Tenants = x.Close()
	rep.Elapsed = time.Since(start)
	n, maxMoved := x.Replans()
	rep.Replans = n - 1 // exclude the bootstrap plan
	rep.MaxTenantsRemapped = maxMoved
	for _, t := range rep.Tenants {
		rep.Stream = control.SumReports(rep.Stream, t.Stream)
		rep.SubmitShed += t.SubmitShed
		if !t.Stream.Clean() {
			rep.violate("tenant %s not clean: lost=%d duplicated=%d out-of-order=%d submitted=%d delivered=%d",
				t.Tenant, t.Stream.Lost, t.Stream.Duplicated, t.Stream.OutOfOrder,
				t.Stream.Submitted, t.Stream.Delivered)
		}
	}
	soak.SetInt("faults", int64(rep.FaultsInjected)).SetInt("repairs", int64(rep.RepairsApplied))
	soak.SetInt("replans", rep.Replans).SetInt("violations", int64(rep.TotalViolations))
	if rep.OK() {
		soak.End(span.OK)
	} else {
		soak.End(span.Errored)
	}
	return rep, nil
}

// produce submits one tenant's continuous seq-numbered traffic until stop
// closes, leasing frame storage from the tenant's engine pool (the
// executor's consumer recycles it) so the soak runs the zero-allocation
// steady state it certifies.
func produce(x *control.Executor, spec *plan.TenantSpec, seed int64, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	gen := workload.Video(spec.FrameSamples/4, seed)
	backoff := func(d time.Duration) bool {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-stop:
			return false
		}
	}
	for seq := 0; ; {
		select {
		case <-stop:
			return
		default:
		}
		d := x.GetBuffer(spec.Name, spec.FrameSamples)
		workload.Fill(gen, d)
		switch err := x.Submit(spec.Name, pipeline.Frame{Seq: seq, Data: d}); {
		case err == nil:
			seq++
		case errors.Is(err, control.ErrClosed):
			return
		case errors.Is(err, control.ErrBackpressure):
			// Dropped at intake by class policy; yield briefly.
			if !backoff(200 * time.Microsecond) {
				return
			}
		default:
			// Shed tenant (or an unexpected error, which the tenant's
			// audit records): back off so the loop cannot spin.
			if !backoff(time.Millisecond) {
				return
			}
		}
	}
}

// check re-proves graceful degradation on the live state and returns the
// processors in use: the pool's pipeline must be a valid certificate over
// the current fault set, and the running segments must be disjoint valid
// placements whose union is every healthy processor.
func (r *Report) check(x *control.Executor, g *graph.Graph, at time.Duration) int {
	r.Checks++
	t := at.Round(time.Millisecond)
	f := x.Faults()
	if err := verify.CheckPipeline(g, f, x.Manager().Pipeline()); err != nil {
		r.violate("t=%v: invalid pool pipeline: %v", t, err)
	}
	segs := x.Segments()
	covered := make(map[int]string)
	for name, seg := range segs {
		if err := verify.CheckSegment(g, f, seg, seg); err != nil {
			r.violate("t=%v: tenant %s segment invalid: %v", t, name, err)
			return len(covered)
		}
		for _, v := range seg {
			if prev, dup := covered[v]; dup {
				r.violate("t=%v: processor %d granted to both %s and %s", t, v, prev, name)
				return len(covered)
			}
			covered[v] = name
		}
	}
	if len(segs) == 0 {
		return 0 // everyone shed: nothing to cover
	}
	healthy := 0
	for _, p := range g.Processors() {
		if !f.Contains(p) {
			healthy++
		}
	}
	if len(covered) != healthy {
		r.violate("t=%v: placements cover %d processors, pool has %d healthy", t, len(covered), healthy)
	}
	return len(covered)
}
