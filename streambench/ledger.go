package main

import (
	"sort"
	"strconv"
	"time"

	"gdpn/internal/obs/span"
)

// ledger folds the spans of a traced pass into per-phase samples. The
// producer feeds it one event group at a time: after the group's
// Inject/Repair calls return, every span they caused has ended, so a
// snapshot of the span ring holds exactly that group's trees.
//
// Span trees by workload:
//
//	steady, churn: remap{drain, detect, plan{tactic…}, audit, solve{solve}, requeue, rewire}
//	tenants:       replan{plan{solve}, remap{drain, requeue, rewire}…, admit…}
//
// A "solve" under a "solve" or "plan" span is the embedding solver's own
// span; the outer "solve" is the reconfiguration manager's solve phase.
type ledger struct {
	// calls counts the remap calls whose spans were absorbed.
	calls int
	// phases holds span durations keyed by per-layer metric stem.
	phases map[string][]time.Duration
	// requeued sums the requeue spans' "frames" attribute.
	requeued int64
	// pumpWait holds, per call, the caller-observed latency not covered by
	// the spans that did the remap work.
	pumpWait []time.Duration
	// remapNS/coveredNS sum every "remap" span's duration and the part of
	// it its direct children cover.
	remapNS, coveredNS int64
	// solves counts embedding-solver spans.
	solves int
	// mismatched counts groups whose root spans did not pair one to one
	// with the calls made.
	mismatched int
}

func newLedger() *ledger { return &ledger{phases: make(map[string][]time.Duration)} }

// absorb folds one event group's spans; lat holds the caller-observed
// latency of each call in the group, in call order.
func (l *ledger) absorb(spans []span.Span, lat []time.Duration) {
	l.calls += len(lat)
	byID := make(map[uint64]int, len(spans))
	kids := make(map[uint64][]span.Span)
	for i, s := range spans {
		byID[s.ID] = i
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	parent := func(s span.Span) string {
		if i, ok := byID[s.Parent]; ok {
			return spans[i].Name
		}
		return ""
	}
	var roots []span.Span
	for _, s := range spans {
		switch s.Name {
		case "remap":
			l.remapNS += int64(s.Duration())
			l.coveredNS += int64(covered(s, kids[s.ID]))
			if s.Parent == 0 {
				roots = append(roots, s)
			}
		case "replan":
			if s.Parent == 0 {
				roots = append(roots, s)
			}
		case "drain", "requeue", "rewire":
			if parent(s) == "remap" {
				l.add("pipeline."+s.Name, s.Duration())
			}
			if s.Name == "requeue" {
				if v, ok := s.Attr("frames"); ok {
					n, _ := strconv.ParseInt(v, 10, 64)
					l.requeued += n
				}
			}
		case "detect", "audit":
			if parent(s) == "remap" {
				l.add("reconfig."+s.Name, s.Duration())
			}
		case "plan":
			switch parent(s) {
			case "remap":
				l.add("reconfig.plan", s.Duration())
			case "replan":
				l.add("plan.plan", s.Duration())
			}
		case "solve":
			if p := parent(s); p == "solve" || p == "plan" {
				l.add("embed.solve", s.Duration())
				l.solves++
			}
		}
	}
	if len(roots) != len(lat) {
		l.mismatched++
		return
	}
	for i, r := range roots {
		cov := r.Duration()
		if r.Name == "replan" {
			cov = covered(r, kids[r.ID])
		}
		w := lat[i] - cov
		if w < 0 {
			w = 0
		}
		l.pumpWait = append(l.pumpWait, w)
	}
}

func (l *ledger) add(key string, d time.Duration) { l.phases[key] = append(l.phases[key], d) }

// p50us is the median duration of a phase in microseconds.
func (l *ledger) p50us(key string) float64 { return micros(quantile(l.phases[key], 0.5)) }

// covered returns how much of parent's interval the union of the child
// spans covers.
func covered(parent span.Span, kids []span.Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end time.Duration
	for _, v := range ivs {
		if v.lo < end {
			v.lo = end
		}
		if v.hi > v.lo {
			total += v.hi - v.lo
			end = v.hi
		}
	}
	return total
}
