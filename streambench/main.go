// Command streambench measures the streaming runtime on G(12,3): frames
// moved per second and per CPU-second, and the caller-observed latency of
// live remaps, on three closed-loop workloads (steady, churn, tenants).
// A traced run (-trace 1) reports where the time goes, layer by layer.
//
// Usage, from the repository root:
//
//	bash streambench/run.sh --workload churn --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted
// (frames submitted plus fault events applied), failed, and the metrics
// by name with their units. See README.md in this directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	hooks    hooks
}

const (
	// setupReps is the number of timed set-ups in the untraced pass;
	// setup_s is their median.
	setupReps = 9
	// probeBurst is the number of remap calls steady's probe makes after
	// each fault-free slice of its window; it then runs the schedule on
	// until every fault is repaired.
	probeBurst = 500
)

func defaultConfig(workload string, seed int64, window time.Duration, trace bool) config {
	return config{workload: workload, seed: seed, window: window, trace: trace}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("streambench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "steady, churn or tenants")
	seed := fs.Int64("seed", 1, "seed of the inputs and the fault schedule")
	seconds := fs.Int("seconds", 10, "length of the timed window, 1-60")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := engineSpecs[*workload]; !ok && *workload != "tenants" {
		fmt.Fprintf(stderr, "streambench: unknown workload %q (want steady, churn or tenants)\n", *workload)
		return 2
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "streambench: --seconds must be 1-60 and --trace 0 or 1")
		return 2
	}
	cfg := defaultConfig(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)

	stamp, _ := json.Marshal(map[string]any{"stamp": hostStamp(cfg)})
	fmt.Fprintln(stdout, string(stamp))
	res, notes, err := run(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "streambench:", err)
		return 1
	}
	for _, n := range notes {
		fmt.Fprintln(stderr, "streambench: FAILED:", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "streambench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// hostStamp identifies the run and the host it ran on.
func hostStamp(cfg config) map[string]any {
	gogc, ok := os.LookupEnv("GOGC")
	if !ok {
		gogc = "unset"
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.window.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"gogc":       gogc,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// runPass runs one pass of the configured workload.
func runPass(cfg config, traced bool, window time.Duration, reps int) (*pass, error) {
	if spec, ok := engineSpecs[cfg.workload]; ok {
		return runEngine(cfg, spec, traced, window, reps)
	}
	return runTenants(cfg, traced, window, reps)
}

// run measures the workload. Untraced, it reports the end-to-end metrics.
// Traced, it splits the window into an untraced half (the baseline for
// the trace overhead, and the runtime readings) and a traced half (every
// other per-layer metric).
// Diagnostics go to log.
func run(cfg config, log io.Writer) (result, []string, error) {
	if !cfg.trace {
		p, err := runPass(cfg, false, cfg.window, setupReps)
		if err != nil {
			return result{}, nil, err
		}
		logPass(log, p)
		return newResult(endToEnd(p), p), p.notes, nil
	}
	u, err := runPass(cfg, false, cfg.window/2, 1)
	if err != nil {
		return result{}, nil, err
	}
	t, err := runPass(cfg, true, cfg.window/2, 1)
	if err != nil {
		return result{}, nil, err
	}
	if t.led.mismatched > 0 {
		t.failf(int64(t.led.mismatched), "%d event groups whose remap spans did not pair with their calls", t.led.mismatched)
	}
	res := newResult(perLayer(cfg.workload, u, t), t)
	res.Attempted += u.ops
	res.Failed += u.failed
	res.Correct = res.Failed == 0
	return res, append(u.notes, t.notes...), nil
}

// logPass prints the window's per-slice rates and the set-up times to
// standard error, to tell a run-long slowdown from a stretch of host noise.
func logPass(w io.Writer, p *pass) {
	var b strings.Builder
	for _, s := range p.slices {
		fmt.Fprintf(&b, " %.0f/%.2f", ratio(float64(s.frames), s.wall.Seconds()), ratio(float64(s.cpu), float64(s.wall)))
	}
	b.WriteString("; set-ups (ms):")
	for _, d := range p.setup {
		fmt.Fprintf(&b, " %.1f", float64(d)/float64(time.Millisecond))
	}
	fmt.Fprintf(w, "streambench: window slices (frames/s / CPUs busy):%s\n", b.String())
}

func newResult(m map[string]metric, p *pass) result {
	return result{Correct: p.failed == 0, Attempted: max(p.ops, 1), Failed: p.failed, Metrics: m}
}

// endToEnd computes the metrics a user of the runtime sees.
func endToEnd(p *pass) map[string]metric {
	return map[string]metric{
		"frames_per_s":     {sliceMedian(p.slices, func(s tally) time.Duration { return s.wall }), "1/s"},
		"frames_per_cpu_s": {sliceMedian(p.slices, func(s tally) time.Duration { return s.cpu }), "1/cpu_s"},
		"remap_p50_us":     {micros(quantile(p.remapLat, 0.5)), "us"},
		"peak_rss_mb":      {p.rssMB, "MB"},
		"setup_s":          {median(p.setup).Seconds(), "s"},
	}
}

// perLayer computes the per-layer metrics from an untraced pass u and a
// traced pass t of the same workload. A layer off the workload's path
// reports 0 (see README.md for which pairs are live).
func perLayer(workload string, u, t *pass) map[string]metric {
	tot := t.total
	frames := float64(tot.frames)
	led := t.led
	calls := float64(led.calls)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// stages: the wrapper's time per kind (steady, churn); tenants has only
	// the engines' kernel histogram, so no per-kind split.
	stageTotal := float64(tot.stageNS[""])
	put("stages.ns_per_frame", ratio(stageTotal, frames), "ns")
	for _, k := range stageKinds {
		put("stages."+k+".ns_per_frame", ratio(float64(tot.stageNS[k]), frames), "ns")
	}
	cpuNS := float64(tot.cpu.Nanoseconds())
	put("stages.cpu_share", ratio(stageTotal, cpuNS), "ratio")

	// pipeline: the frame path, then the remap phases.
	put("pipeline.other_cpu_ns_per_frame", ratio(cpuNS-stageTotal, frames), "ns")
	engineWorkload := workload != "tenants"
	if engineWorkload {
		put("pipeline.submit_block_ns_per_frame", ratio(float64(tot.submitNS), frames), "ns")
	} else {
		put("pipeline.submit_block_ns_per_frame", 0, "ns")
	}
	put("pipeline.out_wait_ns_per_frame", ratio(float64(tot.outWaitNS), frames), "ns")
	put("pipeline.pool_miss_ratio", ratio(float64(tot.poolMisses), float64(tot.poolHits+tot.poolMisses)), "ratio")
	put("pipeline.batch_occupancy_mean", ratio(float64(tot.batchSum), float64(tot.batchCount)), "frames")
	put("pipeline.drain_us_p50", led.p50us("pipeline.drain"), "us")
	put("pipeline.requeue_us_p50", led.p50us("pipeline.requeue"), "us")
	put("pipeline.rewire_us_p50", led.p50us("pipeline.rewire"), "us")
	put("pipeline.pump_wait_us_p50", micros(quantile(led.pumpWait, 0.5)), "us")
	put("pipeline.requeued_per_remap", ratio(float64(led.requeued), calls), "frames")

	// reconfig: the self-planned engine's manager (steady, churn).
	put("reconfig.detect_us_p50", led.p50us("reconfig.detect"), "us")
	put("reconfig.plan_us_p50", led.p50us("reconfig.plan"), "us")
	put("reconfig.audit_us_p50", led.p50us("reconfig.audit"), "us")
	r := t.repairs
	repairs := float64(r.NoChange + r.Splice + r.Rewire + r.EndpointSwap + r.Insert + r.FullRemap)
	put("reconfig.local_ratio", ratio(repairs-float64(r.FullRemap), repairs), "ratio")
	put("reconfig.moved_stages_per_remap", ratio(float64(r.MovedStages), repairs), "count")

	// embed: the solver under either planner.
	put("embed.solve_us_p50", led.p50us("embed.solve"), "us")
	put("embed.solves_per_remap", ratio(float64(led.solves), calls), "count")
	put("embed.memo_hit_ratio", ratio(float64(t.memoHit), float64(t.memoHit+t.memoMiss)), "ratio")
	put("embed.warm_hit_ratio", ratio(float64(t.warmHit), float64(t.warmHit+t.warmMiss)), "ratio")

	// plan and control: the multi-tenant planner and executor (tenants).
	put("plan.plan_us_p50", led.p50us("plan.plan"), "us")
	put("control.tenants_moved_per_replan", ratio(float64(t.moved), calls), "count")
	if engineWorkload {
		put("control.submit_block_ns_per_frame", 0, "ns")
	} else {
		put("control.submit_block_ns_per_frame", ratio(float64(tot.submitNS), frames), "ns")
	}
	put("control.bronze_shed_ratio", ratio(float64(t.bronzeShed), float64(t.bronzeTries)), "ratio")

	// runtime: read over the untraced half.
	ut := u.total
	put("runtime.allocs_per_frame", ratio(float64(ut.allocs), float64(ut.frames)), "allocs")
	put("runtime.gc_cpu_share", ratio(float64(ut.gcCPU), float64(ut.cpu)), "ratio")
	put("runtime.sched_latency_us_p50", ut.schedP50us(), "us")

	put("construct.design_ms", float64(median(u.design))/float64(time.Millisecond), "ms")

	uFPS := ratio(float64(ut.frames), ut.wall.Seconds())
	tFPS := ratio(frames, tot.wall.Seconds())
	put("obs.trace_overhead", ratio(uFPS, tFPS)-1, "ratio")
	put("remap.phase_coverage", ratio(float64(led.coveredNS), float64(led.remapNS)), "ratio")
	// The remap tail, from the untraced half: reported, but not gated,
	// because on a shared 2-vCPU host it follows the neighbours' load.
	put("remap.p99_us", micros(blockP99(u.remapLat)), "us")
	return m
}
