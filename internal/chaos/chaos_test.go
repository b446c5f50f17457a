package chaos

import (
	"context"
	"testing"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/control"
	"gdpn/internal/plan"
)

// TestSoakShortRun is the in-tree smoke version of the nightly soak: a
// fast fault process on G(12,3) for ~1.5s must finish with a clean
// stream, zero invariant violations, and actual fault churn.
func TestSoakShortRun(t *testing.T) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design(12,3): %v", err)
	}
	dur := 1500 * time.Millisecond
	if testing.Short() {
		dur = 400 * time.Millisecond
	}
	rep, err := Run(sol, Config{
		Seed:      1,
		Duration:  dur,
		MTBF:      120 * time.Millisecond,
		MTTR:      40 * time.Millisecond,
		BurstProb: 0.2,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("soak failed:\n%s", rep.Summary())
	}
	if rep.FaultsInjected == 0 {
		t.Fatalf("no faults injected in %v (MTBF too long for test?)", dur)
	}
	if rep.Stream.Submitted == 0 || rep.Stream.Delivered != rep.Stream.Submitted {
		t.Fatalf("stream not clean: %+v", rep.Stream)
	}
	if rep.Checks == 0 {
		t.Fatalf("no invariant checks ran")
	}
}

// TestSoakSeedReplay checks that two runs with the same seed inject the
// same number of faults — the property that makes a failing nightly seed
// reproducible locally. (Exact event times are wall-clock dependent, but
// the schedule's event sequence is seed-determined; with MTBF far above
// the run length only the deterministic prefix fires.)
func TestSoakSeedReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replay comparison needs two timed runs")
	}
	sol, err := construct.Design(10, 2)
	if err != nil {
		t.Fatalf("Design(10,2): %v", err)
	}
	cfg := Config{
		Seed:     7,
		Duration: 600 * time.Millisecond,
		MTBF:     100 * time.Millisecond,
		MTTR:     30 * time.Millisecond,
	}
	a, err := Run(sol, cfg)
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	sol2, _ := construct.Design(10, 2)
	b, err := Run(sol2, cfg)
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	if !a.OK() || !b.OK() {
		t.Fatalf("replay runs not clean:\nA:\n%s\nB:\n%s", a.Summary(), b.Summary())
	}
	// Same seed, same config, same duration: the event prefixes that fit in
	// the window are identical, so fault counts may differ by at most the
	// scheduling jitter at the window edge.
	diff := a.FaultsInjected - b.FaultsInjected
	if diff < 0 {
		diff = -diff
	}
	if diff > 2 {
		t.Fatalf("seed replay diverged: %d vs %d faults", a.FaultsInjected, b.FaultsInjected)
	}
}

// TestSoakContextCancelFlushesCleanly: canceling the soak's context ends
// the run early with Interrupted set, and the shutdown still drains the
// stream — every submitted frame is delivered, nothing lost.
func TestSoakContextCancelFlushesCleanly(t *testing.T) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design(12,3): %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	rep, err := Run(sol, Config{
		Seed:     1,
		Duration: time.Hour, // would run forever without the cancel
		MTBF:     60 * time.Millisecond,
		MTTR:     30 * time.Millisecond,
		Control:  control.Config{Context: ctx},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Interrupted {
		t.Fatal("canceled soak not marked interrupted")
	}
	if rep.Elapsed >= time.Hour {
		t.Fatalf("soak ran to full duration despite cancel: %v", rep.Elapsed)
	}
	if rep.TotalViolations != 0 {
		t.Fatalf("cancellation produced violations:\n%s", rep.Summary())
	}
	if !rep.Stream.Clean() {
		t.Fatalf("interrupted shutdown lost frames: %+v", rep.Stream)
	}
}

// TestMultiSoakShortRun is the in-tree smoke of the multi-tenant soak:
// three tenants with mixed SLO classes on one G(12,3) pool under fast
// fault churn must finish with a clean lifetime audit per tenant, valid
// partitions after every replan, and at least one coordinated replan that
// moved more than one tenant.
func TestMultiSoakShortRun(t *testing.T) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design(12,3): %v", err)
	}
	topo, err := plan.Parse([]byte(`{
	  "pool": {"n": 12, "k": 3},
	  "tenants": [
	    {"name": "gold-a", "class": "gold", "weight": 3, "min_procs": 3, "frame_samples": 256},
	    {"name": "silver-b", "class": "silver", "weight": 2, "min_procs": 2, "frame_samples": 256},
	    {"name": "bronze-c", "class": "bronze", "weight": 1, "min_procs": 1, "frame_samples": 256, "max_pending": 8}
	  ]
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	dur := 1500 * time.Millisecond
	if testing.Short() {
		dur = 400 * time.Millisecond
	}
	rep, err := Run(sol, Config{
		Topology:  topo,
		Seed:      1,
		Duration:  dur,
		MTBF:      120 * time.Millisecond,
		MTTR:      40 * time.Millisecond,
		BurstProb: 0.2,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("multi soak failed:\n%s", rep.Summary())
	}
	if rep.FaultsInjected == 0 {
		t.Fatalf("no faults injected in %v", dur)
	}
	if rep.Replans == 0 {
		t.Fatal("no coordinated replans ran")
	}
	if rep.MaxTenantsRemapped < 2 {
		t.Fatalf("max tenants moved by one replan = %d, want >= 2 (coordination never exercised)",
			rep.MaxTenantsRemapped)
	}
	for _, tr := range rep.Tenants {
		if tr.Stream.Submitted == 0 {
			t.Fatalf("tenant %s moved no traffic", tr.Tenant)
		}
	}
	if rep.Checks == 0 {
		t.Fatal("no partition checks ran")
	}
}

// TestSoakForcedDeadlineRollsBack: a 1ns remap deadline makes every pool
// fault that needs a full solve miss it and roll back. The one-tenant
// soak counts those rollbacks, retries the faults later, and still ends
// with every invariant held and a clean stream.
func TestSoakForcedDeadlineRollsBack(t *testing.T) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design(12,3): %v", err)
	}
	rep, err := Run(sol, Config{
		Seed:          2,
		Duration:      1500 * time.Millisecond,
		MTBF:          60 * time.Millisecond,
		MTTR:          20 * time.Millisecond,
		RemapDeadline: 1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.DeadlineRollbacks == 0 {
		t.Fatalf("no deadline rollbacks under a 1ns remap deadline:\n%s", rep.Summary())
	}
	if !rep.OK() {
		t.Fatalf("forced-deadline soak failed:\n%s", rep.Summary())
	}
	if rep.Stream.Submitted == 0 || !rep.Stream.Clean() {
		t.Fatalf("stream not clean: %+v", rep.Stream)
	}
}
