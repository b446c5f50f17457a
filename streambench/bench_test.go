package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"gdpn/internal/graph"
	"gdpn/internal/obs/span"
	"gdpn/internal/pipeline"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// tinyConfig is a short run of a workload.
func tinyConfig(workload string, trace bool) config {
	return defaultConfig(workload, 3, 400*time.Millisecond, trace)
}

func TestTinyRunsEmitDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range []string{"steady", "churn", "tenants"} {
		for _, trace := range []bool{false, true} {
			res, notes, err := run(tinyConfig(w, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %v", w, trace, res.Correct, res.Failed, res.Attempted, notes)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s (%s) not declared with that unit", w, trace, name, m.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!trace && m.Value <= 0) {
					t.Errorf("%s trace=%v: metric %s = %v", w, trace, name, m.Value)
				}
			}
			if len(got) != len(want) {
				sort.Strings(got)
				t.Errorf("%s trace=%v: got %d metrics %v, declared %d", w, trace, len(got), got, len(want))
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: %v", w, trace, err)
			}
		}
	}
}

func TestPhaseCoverageOnChurn(t *testing.T) {
	if raceEnabled {
		t.Skip("span coverage is a timing share; the race detector inflates the uncovered bookkeeping")
	}
	res, _, err := run(tinyConfig("churn", true), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Metrics["remap.phase_coverage"].Value; c < 0.9 {
		t.Errorf("remap.phase_coverage = %.3f, want >= 0.9", c)
	}
}

// Each sabotaged run must report failures and not be correct.
func TestSabotageRegistersAsFailure(t *testing.T) {
	const victim = 4500 // past churn's 4000 warm-up frames: only the measured run delivers it
	cases := []struct {
		name     string
		workload string
		hooks    hooks
	}{
		{"dropped frame", "churn", hooks{deliver: func(f *pipeline.Frame) bool { return f.Seq != victim }}},
		{"corrupted frame", "churn", hooks{deliver: func(f *pipeline.Frame) bool {
			if f.Seq == victim && len(f.Data) > 0 {
				f.Data[0]++
			}
			return true
		}}},
		{"broken invariant", "churn", hooks{path: dropSecond}},
		{"broken partition", "tenants", hooks{path: dropSecond}},
	}
	for _, c := range cases {
		cfg := tinyConfig(c.workload, false)
		cfg.hooks = c.hooks
		res, notes, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d, want a failure", c.name, res.Correct, res.Failed)
		}
		if len(notes) == 0 {
			t.Errorf("%s: no failure described", c.name)
		}
	}
}

// dropSecond removes the second node of a path or segment.
func dropSecond(p graph.Path) graph.Path {
	if len(p) < 2 {
		return p[:0]
	}
	return append(p[:1:1], p[2:]...)
}

func TestCoveredMergesOverlaps(t *testing.T) {
	parent := span.Span{Start: 0, End: 100}
	kids := []span.Span{
		{Start: 10, End: 30}, {Start: 20, End: 40}, // overlap: 10..40
		{Start: 60, End: 70},
		{Start: 90, End: 120}, // clipped to 90..100
	}
	if got := covered(parent, kids); got != 50 {
		t.Errorf("covered = %v, want 50", got)
	}
}

func TestBlockP99(t *testing.T) {
	lat := make([]time.Duration, 3*p99Block)
	for i := range lat {
		lat[i] = time.Duration(i%p99Block) * time.Microsecond
	}
	lat[5] = time.Hour // one outlier in one block moves nothing
	if got, want := blockP99(lat), 989*time.Microsecond; got != want {
		t.Errorf("blockP99 = %v, want %v", got, want)
	}
	if got := quantile(lat, 0.5); lat[5] != time.Hour || got <= 0 {
		t.Errorf("quantile reordered its input or returned %v", got)
	}
}

func TestDigestIsOrderSensitive(t *testing.T) {
	a := fnvOffset.fold(0, []float64{1, 2}).fold(1, []float64{3})
	b := fnvOffset.fold(1, []float64{3}).fold(0, []float64{1, 2})
	if a == b {
		t.Error("digest does not depend on delivery order")
	}
}
