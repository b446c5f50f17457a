package control_test

import (
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"gdpn/internal/construct"
	"gdpn/internal/control"
	"gdpn/internal/graph"
	"gdpn/internal/obs/span"
	"gdpn/internal/pipeline"
	"gdpn/internal/plan"
	"gdpn/internal/reconfig"
	"gdpn/internal/verify"
)

const mixedTopo = `{
  "pool": {"n": 12, "k": 3},
  "tenants": [
    {"name": "gold-a", "class": "gold", "weight": 3, "min_procs": 3},
    {"name": "silver-b", "class": "silver", "weight": 2, "min_procs": 2},
    {"name": "bronze-c", "class": "bronze", "weight": 1, "min_procs": 1}
  ]
}`

func mustExecutor(t *testing.T, topoSrc string) (*control.Executor, *construct.Solution) {
	t.Helper()
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design: %v", err)
	}
	topo, err := plan.Parse([]byte(topoSrc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	x, err := control.New(sol, topo, control.Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return x, sol
}

// checkPartition asserts the live segments are disjoint valid placements
// covering every healthy processor exactly once.
func checkPartition(t *testing.T, x *control.Executor, sol *construct.Solution) {
	t.Helper()
	faults := x.Faults()
	segs := x.Segments()
	covered := make(map[int]string)
	for name, seg := range segs {
		if err := verify.CheckSegment(sol.Graph, faults, seg, seg); err != nil {
			t.Fatalf("tenant %s segment invalid: %v", name, err)
		}
		for _, v := range seg {
			if prev, dup := covered[v]; dup {
				t.Fatalf("processor %d granted to both %s and %s", v, prev, name)
			}
			covered[v] = name
		}
	}
	healthy := 0
	for _, p := range sol.Graph.Processors() {
		if !faults.Contains(p) {
			healthy++
		}
	}
	if len(covered) != healthy {
		t.Fatalf("partition covers %d processors, pool has %d healthy", len(covered), healthy)
	}
}

func TestExecutorBootstrapPartition(t *testing.T) {
	x, sol := mustExecutor(t, mixedTopo)
	defer x.Close()
	checkPartition(t, x, sol)
	if n, _ := x.Replans(); n != 1 {
		t.Fatalf("bootstrap replans = %d, want 1", n)
	}
	if err := x.Submit("nobody", pipeline.Frame{}); !errors.Is(err, control.ErrUnknownTenant) {
		t.Fatalf("Submit(nobody) = %v, want ErrUnknownTenant", err)
	}
}

// TestExecutorCoordinatedReplan drives traffic through all three tenants
// while pool faults and repairs arrive, and checks every replan keeps the
// partition valid and every tenant's lifetime audit clean.
func TestExecutorCoordinatedReplan(t *testing.T) {
	x, sol := mustExecutor(t, mixedTopo)
	tenants := []string{"gold-a", "silver-b", "bronze-c"}

	// ready holds the faults back until every producer has had a frame
	// accepted: local-tier replans are fast enough that all six could
	// otherwise finish before a producer goroutine is first scheduled.
	var wg, ready sync.WaitGroup
	stop := make(chan struct{})
	for _, name := range tenants {
		wg.Add(1)
		ready.Add(1)
		go func(name string, seed int64) {
			defer wg.Done()
			var once sync.Once
			defer once.Do(ready.Done)
			rng := rand.New(rand.NewSource(seed))
			seq := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf := x.GetBuffer(name, 128)
				for i := range buf {
					buf[i] = rng.NormFloat64()
				}
				err := x.Submit(name, pipeline.Frame{Seq: seq, Data: buf})
				switch {
				case err == nil:
					seq++
					once.Do(ready.Done)
				case errors.Is(err, control.ErrBackpressure):
					// Bronze drop: seq NOT consumed, frame never entered.
				case errors.Is(err, control.ErrTenantShed):
					// Shed mid-run; keep polling for readmission.
				default:
					t.Errorf("Submit(%s): %v", name, err)
					return
				}
			}
		}(name, int64(len(name)))
	}
	ready.Wait()

	procs := sol.Graph.Processors()
	faulted := []int{procs[1], procs[5], procs[9]}
	for _, node := range faulted {
		res, err := x.Inject(node)
		if err != nil {
			t.Fatalf("Inject(%d): %v", node, err)
		}
		if len(res.Affected)+len(res.Admitted)+len(res.Shed) == 0 {
			t.Fatalf("Inject(%d): replan moved no tenant", node)
		}
		checkPartition(t, x, sol)
	}
	for _, node := range faulted {
		if _, err := x.Repair(node); err != nil {
			t.Fatalf("Repair(%d): %v", node, err)
		}
		checkPartition(t, x, sol)
	}
	close(stop)
	wg.Wait()

	reports := x.Close()
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(reports))
	}
	for _, r := range reports {
		if !r.Stream.Clean() {
			t.Fatalf("tenant %s not clean: %+v", r.Tenant, r.Stream)
		}
		if r.Stream.Submitted == 0 {
			t.Fatalf("tenant %s moved no traffic", r.Tenant)
		}
	}
	if n, _ := x.Replans(); n != 7 { // bootstrap + 3 injects + 3 repairs
		t.Fatalf("replans = %d, want 7", n)
	}
}

// TestExecutorShedReadmit pins the capacity-shed cycle: floors that
// exactly fit the unfaulted pool force the lowest class out on the first
// fault and back in on the repair, on a fresh engine incarnation.
func TestExecutorShedReadmit(t *testing.T) {
	x, sol := mustExecutor(t, `{
	  "pool": {"n": 12, "k": 3},
	  "tenants": [
	    {"name": "g", "class": "gold", "min_procs": 8},
	    {"name": "s", "class": "silver", "min_procs": 5},
	    {"name": "b", "class": "bronze", "min_procs": 2}
	  ]
	}`)
	defer x.Close()
	node := sol.Graph.Processors()[0]

	res, err := x.Inject(node)
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	found := false
	for _, name := range res.Shed {
		if name == "b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bronze not shed on capacity loss: %+v", res)
	}
	if err := x.Submit("b", pipeline.Frame{Seq: 0, Data: make([]float64, 8)}); !errors.Is(err, control.ErrTenantShed) {
		t.Fatalf("Submit(shed) = %v, want ErrTenantShed", err)
	}
	checkPartition(t, x, sol)

	res, err = x.Repair(node)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	found = false
	for _, name := range res.Admitted {
		if name == "b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bronze not readmitted after repair: %+v", res)
	}
	if err := x.Submit("b", pipeline.Frame{Seq: 0, Data: make([]float64, 8)}); err != nil {
		t.Fatalf("Submit after readmit: %v", err)
	}
	reports := x.Close()
	for _, r := range reports {
		if r.Tenant == "b" && r.Incarnations != 2 {
			t.Fatalf("bronze incarnations = %d, want 2", r.Incarnations)
		}
	}
}

// TestExecutorBudgetShed runs the planner without the structured layout
// (so every solve costs real expansions) and gives one tenant a 1-node
// budget: its first charged replan must shed it permanently.
func TestExecutorBudgetShed(t *testing.T) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design: %v", err)
	}
	bare := *sol
	bare.Layout = nil // force the searching tiers: expansions > 0
	topo, err := plan.Parse([]byte(`{
	  "pool": {"n": 12, "k": 3},
	  "tenants": [
	    {"name": "g", "class": "gold"},
	    {"name": "b", "class": "bronze", "budget": 1}
	  ]
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	x, err := control.New(&bare, topo, control.Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer x.Close()

	// Fresh fault sets until the budgeted tenant is charged past its
	// allowance (the bootstrap solve may already have done it).
	procs := sol.Graph.Processors()
	shed := false
	for i := 0; i < 3 && !shed; i++ {
		res, err := x.Inject(procs[i])
		if err != nil {
			t.Fatalf("Inject: %v", err)
		}
		for _, name := range res.Shed {
			if name == "b" {
				shed = true
			}
		}
		if _, ok := x.Segments()["b"]; !ok {
			shed = true
		}
	}
	if !shed {
		t.Fatal("budgeted tenant was never shed")
	}
	// Permanent: repairs do not readmit a budget-exhausted tenant.
	faults := x.Faults()
	for _, p := range procs {
		if faults.Contains(p) {
			if _, err := x.Repair(p); err != nil {
				t.Fatalf("Repair: %v", err)
			}
		}
	}
	if _, ok := x.Segments()["b"]; ok {
		t.Fatal("budget-exhausted tenant was readmitted")
	}
	var gSeg graph.Path
	for name, seg := range x.Segments() {
		if name == "g" {
			gSeg = seg
		}
	}
	if len(gSeg) != len(sol.Graph.Processors()) {
		t.Fatalf("surviving tenant holds %d procs, want the whole pool (%d)", len(gSeg), len(sol.Graph.Processors()))
	}
}

// TestExecutorReplanUsesLocalTier pins that a pool fault whose pipeline
// neighbours are adjacent is answered by the manager's splice tactic: no
// solver work, even without the structured layout, and a valid partition.
func TestExecutorReplanUsesLocalTier(t *testing.T) {
	sol, err := construct.Design(12, 3)
	if err != nil {
		t.Fatalf("Design: %v", err)
	}
	bare := *sol
	bare.Layout = nil // a full solve would cost real expansions
	topo, err := plan.Parse([]byte(mixedTopo))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	x, err := control.New(&bare, topo, control.Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer x.Close()

	segs := x.Segments()
	var interior graph.Path
	for _, name := range []string{"gold-a", "silver-b", "bronze-c"} {
		interior = append(interior, segs[name]...)
	}
	victim := -1
	for i := 1; i+1 < len(interior); i++ {
		if sol.Graph.HasEdge(interior[i-1], interior[i+1]) {
			victim = interior[i]
			break
		}
	}
	if victim < 0 {
		t.Fatal("no processor with adjacent pipeline neighbours")
	}
	res, err := x.Inject(victim)
	if err != nil {
		t.Fatalf("Inject(%d): %v", victim, err)
	}
	if res.Expansions != 0 {
		t.Fatalf("splice-able fault cost %d expansions, want 0 (local tier)", res.Expansions)
	}
	checkPartition(t, x, &bare)
}

// TestFailedReplanTripsFlightRecorder: a coordinated replan that misses
// the pool manager's remap deadline rolls back, leaves every placement as
// it was, and trips the armed flight recorder with a remap_deadline dump,
// as a failed engine remap does.
func TestFailedReplanTripsFlightRecorder(t *testing.T) {
	sol, err := construct.Design(10, 2)
	if err != nil {
		t.Fatalf("Design: %v", err)
	}
	topo, err := plan.Parse([]byte(`{"pool": {"n": 10, "k": 2}, "tenants": [{"name": "solo"}]}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	x, err := control.New(sol, topo, control.Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer x.Close()
	dir := t.TempDir()
	rec := span.DefaultRecorder()
	if err := rec.Arm(span.RecorderConfig{Dir: dir}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	defer rec.Disarm()

	before := x.Segments()
	// G(10,2) terminals have degree 1, so faulting a pipeline endpoint has
	// no local tactic and needs the full solve that a 1ns deadline fails.
	x.Manager().SetDeadline(1)
	victim := x.Manager().Pipeline()[0]
	if _, err := x.Inject(victim); !errors.Is(err, reconfig.ErrDeadline) {
		t.Fatalf("Inject(%d) = %v, want reconfig.ErrDeadline", victim, err)
	}
	if x.Faults().Contains(victim) {
		t.Fatal("failed replan left the fault recorded")
	}
	if after := x.Segments(); !reflect.DeepEqual(before, after) {
		t.Fatalf("failed replan moved placements: before %v, after %v", before, after)
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no flight dump written (glob err %v)", err)
	}
	d, err := span.ReadDump(dumps[0])
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if d.Kind != span.AnomalyDeadline {
		t.Fatalf("dump kind = %s, want %s", d.Kind, span.AnomalyDeadline)
	}
}
