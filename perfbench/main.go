// Command perfbench is the PEATS repository benchmark: it drives one of
// four workloads (kv, queue, universal, xfer) against the replicated
// stack in this process, checks the end state, and prints the result.
//
//	perfbench -workload kv -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of an untraced run;
// with -trace 1 it runs the workload untraced and traced (half the
// window each), replays the generated ops through the isolated
// per-layer ladder, and reports the per-layer metrics, the tracing
// overhead and a span dump. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. See
// README.md for the workloads and the metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"peats/internal/buildinfo"
	"peats/internal/metrics"
)

// An untraced run builds its deployment at least minSetups times, and
// more (up to maxSetups) while the builds took less than setupBudget in
// all; setup_s is the median, and the last build is measured. On a
// shared host a quick build (xfer's takes about 10 ms) runs at one of
// two speeds, about 2x apart, for stretches of a few tenths of a
// second, so the cap lets quick builds fill the budget: with 41 builds
// per run, xfer's setup_s spread by 40% of its median over ten runs.
const (
	minSetups   = 3
	maxSetups   = 201
	setupBudget = 2 * time.Second
)

// runDeadline bounds a whole run.
const runDeadline = 170 * time.Second

// outDir, relative to the working directory, holds the scratch data
// directories, span dumps and reports.
var outDir = filepath.Join(".bench_build", "perfbench")

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: kv, queue, universal or xfer")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	rep := &report{Workload: wl.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Env: environment()}
	window := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		err = runE2E(ctx, wl, rep, &env{seed: *seed, dir: scratch, window: window})
	} else {
		err = runTraced(ctx, wl, rep, *seed, scratch, window)
	}
	if err != nil {
		return err
	}
	return rep.print(outDir)
}

// phaseResult is one drive of a deployment: its samples and costs.
type phaseResult struct {
	setupS     []float64
	attempted  int
	failed     int
	total      int // ops completed, warm-up included
	completed  int // measured ops completed
	span       time.Duration
	ops        []measured // the measured ops that completed
	stationary bool       // the workload's, see workload.stationary
	late       []float64
	cpu        time.Duration
	layers     map[string]float64
	checkErr   error
}

// runPhase drives parts fresh deployments of the workload, each for an
// equal share of the window, pools their samples and checks each end
// state. Every build's time is a setup sample; with setups > 0, further
// builds are timed (and stopped at once) until there are at least
// setups samples and either setupBudget is spent or maxSetups reached.
func runPhase(ctx context.Context, wl *workload, e *env, parts, setups int) (*phaseResult, error) {
	res := &phaseResult{stationary: wl.stationary}
	part := *e
	part.window = e.window / time.Duration(parts)
	var spent time.Duration
	build := func() (instance, error) {
		// Each build starts from a collected heap, so the garbage of
		// the previous build's teardown is not charged to it.
		runtime.GC()
		t0 := time.Now()
		inst, err := wl.setup(ctx, &part)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(t0)
		spent += took
		res.setupS = append(res.setupS, took.Seconds())
		return inst, nil
	}
	for range parts {
		inst, err := build()
		if err != nil {
			return nil, err
		}
		err = res.drive(ctx, inst, part.tr)
		inst.stop()
		if err != nil {
			return nil, err
		}
	}
	for setups > 0 && len(res.setupS) < maxSetups && (len(res.setupS) < setups || spent < setupBudget) {
		inst, err := build()
		if err != nil {
			return nil, err
		}
		inst.stop()
	}
	return res, nil
}

// drive runs one deployment's load, adds its samples and costs to r,
// collects the in-situ per-layer metrics when traced, and runs the
// correctness check.
func (r *phaseResult) drive(ctx context.Context, inst instance, tr *tracer) error {
	var regs []*metrics.Registry
	for _, g := range inst.groups() {
		if g.reg != nil {
			regs = append(regs, g.reg)
		}
	}
	before := snapAll(regs)
	ro0, ord0 := inst.counts().readOnly.Load(), inst.counts().ordered.Load()
	tr.resetEvents()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	steal := startStealMonitor()
	recs, err := inst.drive(ctx)
	ss := steal.finish()
	cpu := cpuTime() - cpu0
	rt1 := readRuntime()
	after := snapAll(regs)
	if err != nil {
		return fmt.Errorf("drive: %w", err)
	}
	r.cpu += cpu
	total := r.collect(recs, ss)

	c := layerCtx{ops: float64(total), before: before, after: after}
	if tr != nil {
		r.layers = make(map[string]float64)
		r.inSitu(inst, tr, c, ro0, ord0)
		r.layers["runtime.alloc_bytes_per_op"] = ratio(rt1.allocBytes-rt0.allocBytes, c.ops)
		r.layers["runtime.allocs_per_op"] = ratio(rt1.allocs-rt0.allocs, c.ops)
		r.layers["runtime.gc_cpu_fraction"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
		// The end-of-run state, as a checkpoint would serialize it.
		svc := inst.groups()[0].services[0]
		var took []float64
		var size int
		for range 5 {
			t0 := time.Now()
			size = len(svc.Snapshot())
			took = append(took, ms(time.Since(t0)))
		}
		r.layers["service.snapshot_ms"] = median(took)
		r.layers["service.snapshot_bytes"] = float64(size)
	}
	r.checkErr = errors.Join(r.checkErr, inst.check(ctx))
	if tr != nil {
		inst.layers(r.layers, c)
	}
	return nil
}

// collect adds one deployment's samples to r and returns the number of
// ops it completed, warm-up included, noting the steal near each
// measured op from the steal readings ss.
func (r *phaseResult) collect(recs []*recorder, ss stealSeries) int {
	var first, last time.Time
	total := 0
	for _, rec := range recs {
		total += rec.total
		for _, s := range rec.samples {
			r.attempted++
			r.late = append(r.late, ms(s.late))
			if s.failed {
				r.failed++
				continue
			}
			r.completed++
			r.ops = append(r.ops, measured{s.class, ms(s.latency), ss.exposure(s.due, s.due.Add(s.latency))})
		}
		if !rec.first.IsZero() && (first.IsZero() || rec.first.Before(first)) {
			first = rec.first
		}
		if rec.last.After(last) {
			last = rec.last
		}
	}
	r.total += total
	r.span += last.Sub(first)
	return total
}

// opsPerS is the measured ops completed per second of the deployments'
// measured spans.
func (r *phaseResult) opsPerS() float64 {
	return ratio(float64(r.completed), r.span.Seconds())
}

// inSitu computes the per-layer metrics every workload shares from the
// groups' counters and the primary's protocol events.
func (r *phaseResult) inSitu(inst instance, tr *tracer, c layerCtx, ro0, ord0 int64) {
	m := r.layers
	m["bft.batch_fill"] = histDeltaMean(c.before, c.after, "peats_bft_batch_fill", "r0")
	m["bft.batch_wait_us"] = histDeltaMean(c.before, c.after, "peats_bft_batch_delay_seconds", "") * 1e6
	m["bft.propose_to_prepared_us"], m["bft.prepared_to_executed_us"], m["bft.tentative_to_promoted_us"] = tr.batchPhases()
	// A read-only submission that falls back to ordering shows up as an
	// ordered request the senders did not issue themselves.
	n := inst.counts()
	ro := float64(n.readOnly.Load() - ro0)
	ordered := float64(n.ordered.Load() - ord0)
	executed := counterDelta(c.before, c.after, "peats_bft_requests_executed_total", "r0")
	if ro > 0 {
		m["bft.ro_fast_ratio"] = 1 - min(1, max(0, executed-ordered)/ro)
	}
	m["bft.checkpoints_full_per_kop"] = ratio(1e3*counterDelta(c.before, c.after, "peats_bft_checkpoints_full_total", "r0"), c.ops)
	m["bft.checkpoints_delta_per_kop"] = ratio(1e3*counterDelta(c.before, c.after, "peats_bft_checkpoints_delta_total", "r0"), c.ops)
	m["bft.view_changes"] = counterDelta(c.before, c.after, "peats_bft_view_changes_total", "")
	m["bft.tentative_rollbacks"] = counterDelta(c.before, c.after, "peats_bft_tentative_rollbacks_total", "")
}

func runE2E(ctx context.Context, wl *workload, rep *report, e *env) error {
	res, err := runPhase(ctx, wl, e, wl.deployments(e.window), minSetups)
	if err != nil {
		return err
	}
	rep.addPhase("untraced", res)
	all := rep.Phases["untraced"].All
	values := map[string]float64{
		"setup_s":       median(res.setupS),
		"p50_ms":        all.P50ms,
		"ops_per_s":     res.opsPerS(),
		"cpu_ms_per_op": ratio(ms(res.cpu), float64(res.total)),
		"max_rss_mb":    maxRSSMB(),
	}
	rep.Metrics = make(map[string]metric, len(values))
	for name, unit := range e2eUnits() {
		rep.Metrics[name] = metric{values[name], unit}
	}
	return nil
}

func runTraced(ctx context.Context, wl *workload, rep *report, seed uint64, scratch string, window time.Duration) error {
	half := max(time.Second, window/2)
	parts := wl.deployments(half)
	plain, err := runPhase(ctx, wl, &env{seed: seed, dir: scratch, window: half}, parts, 0)
	if err != nil {
		return fmt.Errorf("untraced phase: %w", err)
	}
	rep.addPhase("untraced", plain)
	tr := newTracer()
	traced, err := runPhase(ctx, wl, &env{seed: seed, dir: scratch, window: half, tr: tr}, parts, 0)
	if err != nil {
		return fmt.Errorf("traced phase: %w", err)
	}
	rep.addPhase("traced", traced)

	in, err := wl.ladder(seed)
	if err != nil {
		return fmt.Errorf("ladder input: %w", err)
	}
	ladder, self, err := runLadder(in, tr, scratch)
	if err != nil {
		return err
	}
	rep.LadderSelfNs = self
	spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, seed))
	if err := tr.dump(spans); err != nil {
		return err
	}
	rep.Spans, rep.SpansDropped = spans, tr.dropped

	p, t := rep.Phases["untraced"], rep.Phases["traced"]
	ladder["trace.overhead_p50_ms"] = t.All.P50ms - p.All.P50ms
	ladder["trace.overhead_cpu_ms_per_op"] = t.CPUmsPerOp - p.CPUmsPerOp
	units := perLayerUnits()
	rep.Metrics = make(map[string]metric, len(units))
	for name, unit := range units {
		v, ok := ladder[name]
		if !ok {
			v = traced.layers[name] // absent: the layer does not run in this workload
		}
		rep.Metrics[name] = metric{v, unit}
	}
	return nil
}

// e2eUnits lists every end-to-end metric with its unit.
func e2eUnits() map[string]string {
	return map[string]string{
		"setup_s": "s", "p50_ms": "ms", "ops_per_s": "1/s",
		"cpu_ms_per_op": "ms", "max_rss_mb": "MB",
	}
}

// perLayerUnits lists every per-layer metric with its unit.
func perLayerUnits() map[string]string {
	return map[string]string{
		"trace.overhead_p50_ms": "ms", "trace.overhead_cpu_ms_per_op": "ms",
		"tuple.match_ns": "ns", "tuple.encode_ns": "ns", "tuple.decode_ns": "ns",
		"wire.encode_ns": "ns", "wire.decode_ns": "ns", "wire.unit_bytes": "B",
		"policy.eval_ns": "ns", "space.find_ns": "ns",
		"space.rdp_ns": "ns", "space.inp_ns": "ns", "space.out_ns": "ns",
		"peats.submit_ns":    "ns",
		"service.execute_us": "us", "service.execute_ro_us": "us",
		"service.snapshot_ms": "ms", "service.snapshot_bytes": "B", "service.delta_us": "us",
		"auth.mac_ns": "ns", "auth.digest_ns": "ns", "auth.sign_us": "us", "auth.verify_us": "us",
		"transport.rtt_us":  "us",
		"durable.commit_us": "us", "durable.flush_us": "us",
		"bft.batch_fill": "count", "bft.batch_wait_us": "us",
		"bft.propose_to_prepared_us": "us", "bft.prepared_to_executed_us": "us",
		"bft.tentative_to_promoted_us": "us", "bft.ro_fast_ratio": "ratio",
		"bft.checkpoints_full_per_kop": "1/kop", "bft.checkpoints_delta_per_kop": "1/kop",
		"bft.view_changes": "count", "bft.tentative_rollbacks": "count",
		"transport.frames_per_op": "count/op", "transport.bytes_per_op": "B/op",
		"transport.frames_per_write": "ratio", "transport.backpressure": "count",
		"durable.fsyncs_per_op": "count/op", "durable.wal_bytes_per_op": "B/op",
		"durable.recovery_ms":          "ms",
		"partition.prepares_per_cross": "count", "partition.abort_ratio": "ratio",
		"universal.steps_per_invoke": "count",
		"runtime.alloc_bytes_per_op": "B/op", "runtime.allocs_per_op": "count/op",
		"runtime.gc_cpu_fraction": "ratio",
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseReport is the recorded outcome of one phase.
type phaseReport struct {
	SetupS    []float64 `json:"setup_s"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	FailRatio float64   `json:"fail_ratio"`
	// All and Classes summarize the ops with the least steal near them,
	// at most StealLevel ticks (see steadiest), for a stationary
	// workload, and every measured op for another.
	All        latencySummary            `json:"all"`
	Classes    map[string]latencySummary `json:"classes"`
	StealLevel uint64                    `json:"steal_level_ticks"`
	// AllUnfiltered summarizes every measured op; StealHit counts those
	// with any steal near them.
	AllUnfiltered latencySummary `json:"all_unfiltered"`
	StealHit      int            `json:"steal_hit"`
	LateP50ms     float64        `json:"lateness_p50_ms"`
	LateMaxms     float64        `json:"lateness_max_ms"`
	OpsPerS       float64        `json:"ops_per_s"`
	CPUmsPerOp    float64        `json:"cpu_ms_per_op"`
	Check         string         `json:"check"`
}

// report is everything a run records. Only Metrics, Correct, Attempted
// and Failed go into the final line.
type report struct {
	Workload     string                 `json:"workload"`
	Seed         uint64                 `json:"seed"`
	Seconds      int                    `json:"seconds"`
	Trace        int                    `json:"trace"`
	Env          map[string]any         `json:"env"`
	Phases       map[string]phaseReport `json:"phases"`
	LadderSelfNs map[string]float64     `json:"ladder_self_ns_per_op,omitempty"`
	Spans        string                 `json:"spans,omitempty"`
	SpansDropped int                    `json:"spans_dropped,omitempty"`
	Metrics      map[string]metric      `json:"metrics"`
	correct      bool
	attempted    int
	failed       int
}

func (rep *report) addPhase(name string, r *phaseResult) {
	if rep.Phases == nil {
		rep.Phases = make(map[string]phaseReport)
		rep.correct = true
	}
	level, picked := uint64(0), r.ops
	if r.stationary {
		level, picked = steadiest(r.ops)
	}
	var all, raw []float64
	var byClass [numClasses][]float64
	for _, o := range picked {
		all = append(all, o.ms)
		byClass[o.class] = append(byClass[o.class], o.ms)
	}
	hit := 0
	for _, o := range r.ops {
		raw = append(raw, o.ms)
		if o.steal > 0 {
			hit++
		}
	}
	p := phaseReport{
		SetupS: r.setupS, Attempted: r.attempted, Failed: r.failed,
		FailRatio: ratio(float64(r.failed), float64(r.attempted)),
		All:       summarize(all), Classes: make(map[string]latencySummary), StealLevel: level,
		AllUnfiltered: summarize(raw), StealHit: hit,
		OpsPerS: r.opsPerS(), CPUmsPerOp: ratio(ms(r.cpu), float64(r.total)), Check: "ok",
	}
	for c, v := range byClass {
		if len(v) > 0 {
			p.Classes[classNames[c]] = summarize(v)
		}
	}
	p.LateP50ms = median(r.late)
	for _, l := range r.late {
		p.LateMaxms = max(p.LateMaxms, l)
	}
	if r.checkErr != nil {
		p.Check = r.checkErr.Error()
		rep.correct = false
	}
	rep.Phases[name] = p
	rep.attempted += r.attempted
	rep.failed += r.failed
}

// print writes the human-readable report, saves the full report as
// JSON under dir, and ends with the one-line result.
func (rep *report) print(dir string) error {
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "workload %s  seed %d  window %ds  trace %d\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	keys := make([]string, 0, len(rep.Env))
	for k := range rep.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-12s %v\n", k, rep.Env[k])
	}
	for _, name := range []string{"untraced", "traced"} {
		p, ok := rep.Phases[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s phase: %d attempted, %d failed, generator lateness p50 %.3f ms max %.3f ms, check %s\n",
			name, p.Attempted, p.Failed, p.LateP50ms, p.LateMaxms, p.Check)
		for _, l := range p.lines() {
			fmt.Fprintf(w, "  %-32s %14.6g %-5s %s\n", l.name, l.value, l.unit, l.note)
		}
	}
	fmt.Fprintf(w, "  %-32s %14.6g %-5s\n", "max_rss_mb", maxRSSMB(), "MB")
	fmt.Fprintln(w, "metrics:")
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	if rep.Spans != "" {
		fmt.Fprintf(w, "spans: %s (%d dropped)\n", rep.Spans, rep.SpansDropped)
	}
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("report-%s-trace%d-seed%d.json", rep.Workload, rep.Trace, rep.Seed))
	if err := os.WriteFile(path, full, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "report: %s\n", path)
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", last)
	if err := w.Flush(); err != nil {
		return err
	}
	if !rep.correct {
		return errors.New("correctness check failed")
	}
	return nil
}

// line is one named value of the human-readable report.
type line struct {
	name  string
	value float64
	unit  string
	note  string
}

// lines names every end-to-end metric of a phase, gated or not, with
// the samples behind each percentile.
func (p phaseReport) lines() []line {
	pct := func(prefix string, s latencySummary) []line {
		note := func(beyond int) string {
			n := fmt.Sprintf("(n=%d, %d beyond", s.N, beyond)
			if beyond < minBeyond {
				n += fmt.Sprintf(", under the rule; highest reportable p%g = %.3f ms", s.TailPct, s.TailMs)
			}
			return n + ")"
		}
		out := []line{{prefix + "p50_ms", s.P50ms, "ms", note(s.P50Beyond)}}
		if prefix == "" {
			out = append(out, line{"p90_ms", s.P90ms, "ms", note(s.P90Beyond)})
		}
		return append(out, line{prefix + "p99_ms", s.P99ms, "ms", note(s.P99Beyond)})
	}
	out := []line{{"setup_s", median(p.SetupS), "s", fmt.Sprintf("(median of %d builds)", len(p.SetupS))}}
	out = append(out, pct("", p.All)...)
	over := fmt.Sprintf("the %d with at most %d ticks", p.All.N, p.StealLevel)
	if p.All.N == p.AllUnfiltered.N {
		over = "every op"
	}
	out = append(out,
		line{"p50_unfiltered_ms", p.AllUnfiltered.P50ms, "ms", fmt.Sprintf("(n=%d, every measured op)", p.AllUnfiltered.N)},
		line{"steal_hit_ratio", ratio(float64(p.StealHit), float64(p.AllUnfiltered.N)), "ratio",
			fmt.Sprintf("(%d ops had steal near them; percentiles over %s)", p.StealHit, over)})
	for _, c := range []string{"read", "write", "cross"} {
		if s, ok := p.Classes[c]; ok {
			out = append(out, pct(c+"_", s)...)
		}
	}
	return append(out,
		line{"ops_per_s", p.OpsPerS, "1/s", ""},
		line{"cpu_ms_per_op", p.CPUmsPerOp, "ms", ""},
		line{"fail_ratio", p.FailRatio, "ratio", fmt.Sprintf("(%d of %d)", p.Failed, p.Attempted)})
}

// environment records what the numbers ran on.
func environment() map[string]any {
	bi := buildinfo.Read()
	return map[string]any{
		"go":         bi.Go,
		"revision":   bi.Revision,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"f":          faults,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// runtimeStats are cumulative process counters from runtime/metrics.
type runtimeStats struct {
	allocBytes, allocs, gcCPU, totalCPU float64
}

func readRuntime() runtimeStats {
	samples := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	val := func(s rtmetrics.Sample) float64 {
		switch s.Value.Kind() {
		case rtmetrics.KindUint64:
			return float64(s.Value.Uint64())
		case rtmetrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeStats{val(samples[0]), val(samples[1]), val(samples[2]), val(samples[3])}
}
