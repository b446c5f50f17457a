package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"gdpn/internal/construct"
	"gdpn/internal/faults"
	"gdpn/internal/obs"
	"gdpn/internal/stages"
	"gdpn/internal/workload"
)

// Shared pieces of the harness: inputs, the frame digest, the stage
// timing wrapper, and readings of the process (CPU, memory, runtime).

const (
	// poolN and poolK select G(12,3), the design every workload runs on.
	poolN, poolK = 12, 3
	// groupEvery is the number of submitted frames between two fault
	// schedule event groups.
	groupEvery = 100
	// ringFrames is how many distinct input frames each stream cycles
	// through; generating them is set-up, copying one is the per-frame
	// cost of the load generator.
	ringFrames = 1024
)

// scheduleConfig is gdpsim's chaos default: MTBF 3 s, MTTR 800 ms, burst
// probability 0.1, bursts of up to k nodes, at most k faults at once.
func scheduleConfig(sol *construct.Solution) faults.ScheduleConfig {
	return faults.ScheduleConfig{
		MTBF:      3 * time.Second,
		MTTR:      800 * time.Millisecond,
		MaxFaults: sol.K,
		BurstProb: 0.1,
		MaxBurst:  sol.K,
	}
}

// inputRing pre-generates ringFrames frames of the given size from the
// video workload.
func inputRing(samples int, seed int64) [][]float64 {
	gen := workload.Video(samples/4, seed)
	ring := make([][]float64, ringFrames)
	for i := range ring {
		ring[i] = make([]float64, samples)
		workload.Fill(gen, ring[i])
	}
	return ring
}

// digest is an order-sensitive FNV-1a fold over the sequence number,
// length and sample bits of every delivered frame.
type digest uint64

const (
	fnvOffset digest = 14695981039346656037
	fnvPrime  digest = 1099511628211
)

func (d digest) fold(seq int, data []float64) digest {
	d = (d ^ digest(seq)) * fnvPrime
	d = (d ^ digest(len(data))) * fnvPrime
	for _, x := range data {
		d = (d ^ digest(math.Float64bits(x))) * fnvPrime
	}
	return d
}

// referenceDigest runs a fresh stage chain sequentially over the first n
// frames of the ring and folds its outputs like the consumer does.
func referenceDigest(stgs []stages.Stage, ring [][]float64, n int) digest {
	d := fnvOffset
	for seq := 0; seq < n; seq++ {
		data := ring[seq%len(ring)]
		for _, st := range stgs {
			data = st.Process(data)
		}
		d = d.fold(seq, data)
	}
	return d
}

// timedStage wraps a stage and accumulates the wall time of its Process
// calls. The engine hands a stage to one worker at a time, but remaps
// move it between goroutines and the harness reads the total while the
// stream runs, so the totals are atomic.
type timedStage struct {
	stages.Stage
	kind string
	ns   atomic.Int64
}

func (t *timedStage) Process(in []float64) []float64 {
	start := time.Now()
	out := t.Stage.Process(in)
	t.ns.Add(int64(time.Since(start)))
	return out
}

// stageKinds are the stage kinds reported per kind, in report order.
var stageKinds = []string{"subsample", "rescale", "fir", "quantize", "lz78"}

// wrapStages puts a timing wrapper around every stage of the chain.
func wrapStages(stgs []stages.Stage) ([]stages.Stage, []*timedStage) {
	out := make([]stages.Stage, len(stgs))
	timed := make([]*timedStage, len(stgs))
	for i, s := range stgs {
		kind, _, _ := strings.Cut(s.Name(), "(")
		timed[i] = &timedStage{Stage: s, kind: kind}
		out[i] = timed[i]
	}
	return out, timed
}

// stageNS sums the wrapped stages' time by kind; the "" key is the total.
func stageNS(timed []*timedStage) map[string]int64 {
	out := make(map[string]int64, len(timed)+1)
	for _, t := range timed {
		ns := t.ns.Load()
		out[t.kind] += ns
		out[""] += ns
	}
	return out
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusKB reads one "Name: N kB" field of /proc/self/status.
func procStatusKB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		num, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return 0
		}
		return v
	}
	return 0
}

// peakRSSMB is the process's resident-memory high-water mark.
func peakRSSMB() float64 { return procStatusKB("VmHWM") / 1024 }

// tally is one reading of every counter a stretch of the timed window
// accounts for; the difference of two readings is what happened between
// them. Counters a pass does not feed stay zero.
type tally struct {
	frames               int64 // delivered (tenants: accepted)
	wall, cpu            time.Duration
	stageNS              map[string]int64 // by stage kind, "" = total
	submitNS, outWaitNS  int64
	poolHits, poolMisses int64
	batchSum, batchCount int64
	allocs               uint64
	gcCPU                time.Duration
	sched                []uint64 // /sched/latencies:seconds bucket counts
}

// epoch anchors tally.wall.
var epoch = time.Now()

// schedBuckets are the bucket bounds of /sched/latencies:seconds, fixed
// for the life of the process.
var schedBuckets []float64

// readTally reads the process-wide counters: clocks, the obs frame-path
// instruments and the Go runtime's own metrics.
func readTally(frames int64, reg *obs.Registry) tally {
	t := tally{frames: frames, wall: time.Since(epoch), cpu: cpuTime()}
	t.poolHits = reg.Counter("pipeline_pool_total", obs.L("result", "hit")).Value()
	t.poolMisses = reg.Counter("pipeline_pool_total", obs.L("result", "miss")).Value()
	occ := reg.Histogram("pipeline_batch_occupancy")
	t.batchSum, t.batchCount = occ.Sum(), occ.Count()
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		t.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		t.gcCPU = time.Duration(s[1].Value.Float64() * float64(time.Second))
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		t.sched = slices.Clone(h.Counts)
		schedBuckets = h.Buckets
	}
	return t
}

// add returns t + sign·o, field by field.
func (t tally) add(o tally, sign int64) tally {
	t.frames += sign * o.frames
	t.wall += time.Duration(sign) * o.wall
	t.cpu += time.Duration(sign) * o.cpu
	stage := make(map[string]int64, len(t.stageNS)+len(o.stageNS))
	for k, v := range t.stageNS {
		stage[k] = v
	}
	for k, v := range o.stageNS {
		stage[k] += sign * v
	}
	t.stageNS = stage
	t.submitNS += sign * o.submitNS
	t.outWaitNS += sign * o.outWaitNS
	t.poolHits += sign * o.poolHits
	t.poolMisses += sign * o.poolMisses
	t.batchSum += sign * o.batchSum
	t.batchCount += sign * o.batchCount
	t.allocs += uint64(sign) * o.allocs
	t.gcCPU += time.Duration(sign) * o.gcCPU
	sched := make([]uint64, max(len(t.sched), len(o.sched)))
	copy(sched, t.sched)
	for i, c := range o.sched {
		sched[i] += uint64(sign) * c
	}
	t.sched = sched
	return t
}

// schedP50us is the median scheduling latency the tally saw.
func (t tally) schedP50us() float64 {
	var total uint64
	for _, c := range t.sched {
		total += c
	}
	if len(schedBuckets) != len(t.sched)+1 {
		return 0
	}
	return histQuantile(t.sched, schedBuckets, total, 0.5) * 1e6
}

// histQuantile estimates quantile q of a runtime/metrics histogram as the
// midpoint of the bucket holding it (an infinite edge falls back to the
// finite one).
func histQuantile(counts []uint64, buckets []float64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum < rank {
			continue
		}
		lo, hi := buckets[i], buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			return hi
		case math.IsInf(hi, 1):
			return lo
		}
		return (lo + hi) / 2
	}
	return buckets[len(buckets)-1]
}

// quantile returns the q-quantile of the samples by the nearest-rank
// method (0 when there are none), leaving the samples in their order.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	xs := slices.Clone(samples)
	slices.Sort(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank]
}

// windowSlices is the number of slices a window is measured in: about
// one a second, at least five.
func windowSlices(window time.Duration) int { return max(5, int(window/time.Second)) }

// timeWindow measures the window slice by slice and returns each slice's
// tally. between, when set, runs after every slice, outside the slices.
func timeWindow(window time.Duration, read func() tally, between func()) []tally {
	n := windowSlices(window)
	out := make([]tally, 0, n)
	for i := 0; i < n; i++ {
		start := read()
		time.Sleep(window / time.Duration(n))
		out = append(out, read().add(start, -1))
		if between != nil {
			between()
		}
	}
	return out
}

// sliceMedian is the median over slices of frames per second of the
// chosen clock.
func sliceMedian(window []tally, clock func(tally) time.Duration) float64 {
	rates := make([]float64, 0, len(window))
	for _, s := range window {
		rates = append(rates, ratio(float64(s.frames), clock(s).Seconds()))
	}
	return median(rates)
}

// p99Block is the number of consecutive remap calls one p99 is taken
// over: enough that ten samples lie beyond it.
const p99Block = 1000

// blockP99 splits the latencies, in call order, into blocks of p99Block
// (the last block absorbs the remainder) and returns the median of the
// blocks' p99s. A stretch of host noise then moves one block's p99, not
// the reported one.
func blockP99(lat []time.Duration) time.Duration {
	n := len(lat) / p99Block
	if n <= 1 {
		return quantile(lat, 0.99)
	}
	p99s := make([]time.Duration, n)
	for b := range p99s {
		blk := lat[b*p99Block : (b+1)*p99Block]
		if b == n-1 {
			blk = lat[b*p99Block:]
		}
		p99s[b] = quantile(blk, 0.99)
	}
	return median(p99s)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median is the middle value (the mean of the two middle ones for an even
// count; 0 when there are none).
func median[T time.Duration | float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
