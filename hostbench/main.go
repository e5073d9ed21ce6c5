// Command hostbench measures what the simulator costs its host: wall
// time, CPU, allocation and heap per op on four workloads (reconfig,
// fleet, plan, campaign), while checking that every simulated result is
// unchanged. It never changes a simulated number; see README.md.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash hostbench/run.sh --workload reconfig --seed 42 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics BENCHMARK.json lists; --trace 1 reports its
// per-layer metrics from a separate traced run. Spans, CPU profiles and a
// full result file go to .bench_out/ when the run ends.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/paperdata"
	"repro/pdr"
)

// setupReps is how many times each run builds its set-up; setup_s is the
// median.
const setupReps = 15

// outDir receives spans, profiles and result files, under the checkout.
const outDir = ".bench_out"

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names it must report and their units.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricValue

func (m metricSet) put(name string, v float64, unit string) { m[name] = metricValue{v, unit} }

// summary is the last line of standard output, the run's machine-readable result.
type summary struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "reconfig, fleet, plan, campaign, or all (every workload in one process)")
		seed    = flag.Uint64("seed", 42, "workload seed")
		seconds = flag.Float64("seconds", 20, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		record  = flag.Bool("record", false, "rewrite hostbench/ledger.json from the ledger prefixes of the recorded seeds")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *record); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, record bool) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	led, err := loadLedger(root)
	if err != nil {
		return err
	}
	if record {
		return recordLedger(root, led)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 || math.IsInf(seconds, 0) || math.IsNaN(seconds) {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	want := spec.EndToEnd
	if trace == 1 {
		want = spec.PerLayer
	}
	prov := provenance(root)

	names := []string{name}
	if name == "all" {
		names = workloadNames
	}
	total := summary{Correct: true, Metrics: metricSet{}}
	for _, n := range names {
		res, err := runWorkload(n, seed, seconds, trace == 1, root, led)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		res.Provenance = prov
		out, err := res.pick(want, trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		if err := res.write(root); err != nil {
			return err
		}
		printHuman(res, out)
		total.Correct = total.Correct && out.Correct
		total.Attempted += out.Attempted
		total.Failed += out.Failed
		if len(names) == 1 {
			total.Metrics = out.Metrics
		} else {
			line, _ := json.Marshal(out)
			fmt.Println(string(line))
			for k, v := range out.Metrics {
				total.Metrics[n+"."+k] = v
			}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runResult is everything one workload run measured; it is written to
// .bench_out/ in full, and the summary line selects from it.
type runResult struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Traced       bool               `json:"traced"`
	Seconds      float64            `json:"seconds"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	FailedFrac   float64            `json:"failed_frac"`
	Problems     []string           `json:"problems,omitempty"`
	MoreProblems int                `json:"more_problems,omitempty"`
	Metrics      metricSet          `json:"metrics"`
	Tail         *tailStat          `json:"op_tail_ms,omitempty"`
	OpMS         []float64          `json:"op_ms"`
	Counts       map[string]float64 `json:"exact_counts"`
	Ledger       string             `json:"ledger"`
	Provenance   map[string]string  `json:"provenance"`

	spans   *spans
	profile []byte
}

// tailStat is the highest op-time percentile with at least ten samples
// beyond it.
type tailStat struct {
	Percentile float64 `json:"percentile"`
	ValueMS    float64 `json:"value_ms"`
	Beyond     int     `json:"beyond"`
	Samples    int     `json:"samples"`
}

// maxProblems bounds the problems a run lists; the rest are counted.
const maxProblems = 50

func (r *runResult) problem(format string, args ...any) {
	if len(r.Problems) >= maxProblems {
		r.MoreProblems++
		return
	}
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// pick selects the metrics BENCHMARK.json names. A per-layer metric the
// workload does not exercise reads 0; a missing end-to-end metric or a
// unit mismatch is an error in the benchmark itself.
func (r *runResult) pick(want []metricSpec, perLayer bool) (summary, error) {
	s := summary{
		Correct:   r.Failed == 0 && len(r.Problems) == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   metricSet{},
	}
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		switch {
		case !ok && perLayer:
			v = metricValue{0, m.Unit}
		case !ok:
			return s, fmt.Errorf("metric %s not measured", m.Name)
		case v.Unit != m.Unit:
			return s, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return s, fmt.Errorf("metric %s is %v", m.Name, v.Value)
		}
		s.Metrics[m.Name] = v
	}
	return s, nil
}

func (r *runResult) write(root string) error {
	dir := filepath.Join(root, outDir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, btoi(r.Traced)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if r.spans != nil {
		data, err := json.Marshal(r.spans.recs)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "spans.json"), data, 0o644); err != nil {
			return err
		}
	}
	if r.profile != nil {
		if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), r.profile, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func printHuman(r *runResult, s summary) {
	names := make([]string, 0, len(s.Metrics))
	for k := range s.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s seed %d trace %d: attempted %d, failed %d, correct %v\n",
		r.Workload, r.Seed, btoi(r.Traced), s.Attempted, s.Failed, s.Correct)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", k, s.Metrics[k].Value, s.Metrics[k].Unit)
	}
	if r.Tail != nil {
		fmt.Fprintf(os.Stderr, "  op_tail_ms: p%g = %.4g ms (%d of %d ops beyond)\n",
			r.Tail.Percentile, r.Tail.ValueMS, r.Tail.Beyond, r.Tail.Samples)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(os.Stderr, "  problem:", p)
	}
	if r.MoreProblems > 0 {
		fmt.Fprintf(os.Stderr, "  ... and %d more problems\n", r.MoreProblems)
	}
}

// paperCheck boots a ZedBoard, sweeps Table I's verifying rows and
// returns the largest relative throughput error against the paper, in %.
func paperCheck() (float64, error) {
	sys, err := pdr.NewSystem()
	if err != nil {
		return 0, err
	}
	var rows []paperdata.TableIRow
	var freqs []float64
	for _, row := range paperdata.TableI {
		if row.IRQ {
			rows = append(rows, row)
			freqs = append(freqs, row.FreqMHz)
		}
	}
	pts, err := sys.Sweep("RP1", "fir128", freqs)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for i, pt := range pts {
		if !pt.Result.IRQReceived {
			return 0, fmt.Errorf("Table I row %v MHz: no interrupt", rows[i].FreqMHz)
		}
		worst = math.Max(worst, math.Abs(pt.Result.ThroughputMBs-rows[i].ThroughputMBs)/rows[i].ThroughputMBs*100)
	}
	return worst, nil
}

// phase is one closed-loop run of ops. The timed window covers the ops
// that started before the deadline; ops after it only complete the
// ledger prefix and are checked, not timed.
type phase struct {
	raws  []any
	errs  []error
	durs  []time.Duration
	marks []mark // at each timed op's start, and when the window closed
	timed int
	peak  uint64
}

// mark is a reading of the host counters between two ops.
type mark struct {
	at     time.Time
	cpu    time.Duration
	bytes  uint64
	allocs uint64
}

func takeMark() mark {
	b, a := allocCounters()
	return mark{at: time.Now(), cpu: cpuTime(), bytes: b, allocs: a}
}

// runPhase runs ops for the given time (seconds ≤ 0: exactly the ledger
// prefix, all timed).
func runPhase(w workload, seconds float64, sp *spans) (*phase, error) {
	prefix := w.layout().prefix
	ex, _ := w.(tracedExtra)
	ph := &phase{}
	heap := startHeapSampler()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	open := true
	defer func() {
		if open {
			heap.stop()
		}
	}()
	for i := 0; ; i++ {
		if open {
			if seconds > 0 && !time.Now().Before(deadline) || seconds <= 0 && i >= prefix {
				ph.marks = append(ph.marks, takeMark())
				ph.peak = heap.stop()
				open = false
			}
		}
		if !open && i >= prefix {
			break
		}
		if sp != nil {
			sp.op = i
		}
		if open {
			ph.marks = append(ph.marks, takeMark())
		}
		start := time.Now()
		raw, err := w.op(i, sp)
		d := time.Since(start)
		if open {
			ph.timed++
			ph.durs = append(ph.durs, d)
		}
		ph.raws = append(ph.raws, raw)
		ph.errs = append(ph.errs, err)
		if err == nil && ex != nil && sp != nil && open {
			if err := ex.extra(i, raw, d, sp); err != nil {
				return nil, err
			}
		}
	}
	return ph, nil
}

// chunks splits the timed ops into about ten chunks of whole op mixes
// and returns each chunk's [start, end) op range.
func (ph *phase) chunks(mix int) [][2]int {
	size := ph.timed / 10 / mix * mix
	if size < mix {
		size = mix
	}
	if size > ph.timed {
		size = ph.timed
	}
	var out [][2]int
	for s := 0; s+size <= ph.timed; s += size {
		out = append(out, [2]int{s, s + size})
	}
	return out
}

// judged is a phase's ops after checking.
type judged struct {
	verdicts []verdict
	failed   []bool
	counts   map[string]float64 // over the ledger prefix
}

// judgePhase checks every op: its invariants, repeats of the same inputs,
// a replay from fresh state, and the ledger at recorded seeds.
func judgePhase(w workload, name string, seed uint64, ph *phase, led *ledger, r *runResult) (*judged, error) {
	l := w.layout()
	prefix, period := l.prefix, l.period
	n := len(ph.raws)
	j := &judged{verdicts: make([]verdict, n), failed: make([]bool, n)}
	fail := func(i int, format string, args ...any) {
		if !j.failed[i] {
			r.problem("op %d: "+format, append([]any{i}, args...)...)
		}
		j.failed[i] = true
	}
	for i, raw := range ph.raws {
		if ph.errs[i] != nil {
			fail(i, "%v", ph.errs[i])
			continue
		}
		j.verdicts[i] = w.judge(raw)
		if err := j.verdicts[i].err; err != nil {
			fail(i, "%v", err)
		}
		if period > 0 && i >= period && ph.errs[i-period] == nil && j.verdicts[i].digest != j.verdicts[i-period].digest {
			fail(i, "differs from op %d, which had the same inputs", i-period)
		}
	}
	if ph.errs[0] != nil {
		return j, nil
	}

	// Determinism: re-run ops from fresh state where the phase itself
	// had no repeats to compare.
	if rp, ok := w.(replayer); ok {
		if err := rp.replay(ph.raws[0]); err != nil {
			fail(0, "replay: %v", err)
		}
	} else if period == 0 || n <= period {
		m := 1
		if period == 0 {
			m = min(n, prefix)
			if err := w.setup(nil); err != nil {
				return nil, err
			}
		}
		for i := 0; i < m; i++ {
			raw, err := w.op(i, nil)
			if err != nil {
				fail(i, "replay: %v", err)
				continue
			}
			if ph.errs[i] == nil && w.judge(raw).digest != j.verdicts[i].digest {
				fail(i, "replay from fresh state differs")
			}
		}
	}

	// Ledger: the prefix's digests and exact counts at recorded seeds.
	sum := map[string]float64{}
	for i := 0; i < prefix && i < n; i++ {
		for k, v := range j.verdicts[i].counts {
			sum[k] += v
		}
	}
	j.counts = w.finish(sum)
	if e := led.entry(name, seed); e == nil {
		r.Ledger = "seed not recorded: invariants, repeats and replays checked"
	} else {
		r.Ledger = "matches"
		for i := 0; i < prefix && i < n && i < len(e.Digests); i++ {
			if ph.errs[i] == nil && j.verdicts[i].digest.hex() != e.Digests[i] {
				fail(i, "digest %s, ledger %s", j.verdicts[i].digest.hex(), e.Digests[i])
				r.Ledger = "differs"
			}
		}
		if diffs := compareCounts(e.Counts, j.counts); len(diffs) > 0 {
			r.Ledger = "differs"
			for _, d := range diffs {
				r.problem("ledger count changed (a model change, not a speed-up): %s", d)
			}
		}
	}

	// Self-check: a result with one simulated number changed must fail.
	pv := w.judge(w.perturb(ph.raws[0]))
	if pv.err == nil && pv.digest == j.verdicts[0].digest {
		r.problem("self-check: a perturbed result passed the checks")
	}
	return j, nil
}

// runWorkload sets up, runs and checks one workload.
func runWorkload(name string, seed uint64, seconds float64, traced bool, root string, led *ledger) (*runResult, error) {
	w, err := newWorkload(name, seed, root, led)
	if err != nil {
		return nil, err
	}
	r := &runResult{Workload: name, Seed: seed, Traced: traced, Seconds: seconds, Metrics: metricSet{}}

	// Set-up, several times: the Table I model check, then the
	// workload's own inputs. The last build is the one the ops use.
	// setup_s is CPU time, like the other gated times (see endToEnd).
	var setupCPU, setupWall []float64
	errPct := 0.0
	for k := 0; k < setupReps; k++ {
		t0, c0 := time.Now(), cpuTime()
		if errPct, err = paperCheck(); err != nil {
			return nil, fmt.Errorf("Table I check: %w", err)
		}
		if err := w.setup(nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	r.Metrics.put("setup_s", median(setupCPU), "s")
	r.Metrics.put("setup_wall_s", median(setupWall), "s")
	r.Metrics.put("paper_err_pct", errPct, "%")

	if !traced {
		ph, err := runPhase(w, seconds, nil)
		if err != nil {
			return nil, err
		}
		j, err := judgePhase(w, name, seed, ph, led, r)
		if err != nil {
			return nil, err
		}
		r.account(ph, j)
		r.endToEnd(ph, j, w.layout().mix)
		return r, nil
	}

	// The traced run: an untraced phase first, as the reference for the
	// tracing overhead, then the same ops again with spans, the fleet
	// tracer and the CPU profiler on.
	half := seconds / 2
	ref, err := runPhase(w, half, nil)
	if err != nil {
		return nil, err
	}
	jref, err := judgePhase(w, name, seed, ref, led, r)
	if err != nil {
		return nil, err
	}
	sp := newSpans()
	if err := w.setup(sp); err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	gc0, used0, cyc0 := gcCounters()
	ph, err := runPhase(w, half, sp)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	gc1, used1, cyc1 := gcCounters()
	j, err := judgePhase(w, name, seed, ph, led, r)
	if err != nil {
		return nil, err
	}
	r.account(ref, jref)
	r.account(ph, j)
	for i := 0; i < len(ph.raws) && i < len(ref.raws); i++ {
		if ph.errs[i] == nil && ref.errs[i] == nil && j.verdicts[i].digest != jref.verdicts[i].digest {
			r.problem("op %d: traced result differs from untraced", i)
		}
	}
	for k, v := range jref.counts {
		if j.counts[k] != v {
			r.problem("count %s: traced %v, untraced %v", k, j.counts[k], v)
		}
	}
	r.spans, r.profile = sp, prof.Bytes()
	return r, r.perLayer(w, ph, j, ref, sp, gc1-gc0, used1-used0, cyc1-cyc0)
}

// account adds a phase's ops to the attempted and failed totals.
func (r *runResult) account(ph *phase, j *judged) {
	r.Attempted += len(ph.raws)
	for _, f := range j.failed {
		if f {
			r.Failed++
		}
	}
	r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	r.Counts = j.counts
}

func durMS(d []time.Duration) []float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x) / float64(time.Millisecond)
	}
	return v
}

// endToEnd derives the end-to-end metrics from the timed window. Each
// per-op rate is the median over chunks of whole op mixes, so a burst of
// host noise moves one chunk, not the result. Rates are given per wall
// second and per CPU second: the process's CPU time leaves out the time
// the hypervisor gives the host's CPUs to other guests, which on a
// shared host can stretch a two-worker campaign's wall time twofold.
func (r *runResult) endToEnd(ph *phase, j *judged, mix int) {
	var wall, cpu, mb, allocs, events, cpuEvents []float64
	for _, c := range ph.chunks(mix) {
		a, b := ph.marks[c[0]], ph.marks[c[1]]
		n := float64(c[1] - c[0])
		var ev uint64
		for i := c[0]; i < c[1]; i++ {
			ev += j.verdicts[i].events
		}
		sec := b.at.Sub(a.at).Seconds()
		wall = append(wall, sec/n)
		cpu = append(cpu, (b.cpu-a.cpu).Seconds()/n)
		mb = append(mb, float64(b.bytes-a.bytes)/1e6/n)
		allocs = append(allocs, float64(b.allocs-a.allocs)/n)
		events = append(events, float64(ev)/sec)
		cpuEvents = append(cpuEvents, float64(ev)/(b.cpu-a.cpu).Seconds())
	}
	ms := durMS(ph.durs)
	r.OpMS = append([]float64(nil), ms...)
	if p, v, beyond, ok := tail(ms); ok {
		r.Tail = &tailStat{Percentile: p, ValueMS: v, Beyond: beyond, Samples: len(ms)}
	}
	m := r.Metrics
	m.put("wall_s_per_op", median(wall), "s")
	m.put("cpu_s_per_op", median(cpu), "s")
	m.put("op_p50_ms", median(ms), "ms")
	m.put("sim_events_per_s", median(events), "1/s")
	m.put("sim_events_per_cpu_s", median(cpuEvents), "1/s")
	m.put("alloc_mb_per_op", median(mb), "MB")
	m.put("allocs_per_op", median(allocs), "count")
	m.put("peak_heap_mb", float64(ph.peak)/1e6, "MB")
}

// spanMetrics maps host spans to per-layer metrics (median per call).
var spanMetrics = []struct {
	span, metric string
	unit         time.Duration
}{
	{"zynq.boot", "zynq.boot_ms", time.Millisecond},
	{"bitstream.build", "bitstream.build_ms", time.Millisecond},
	{"clock.retune", "clock.retune_us", time.Microsecond},
	{"thermal.heat", "thermal.heat_us", time.Microsecond},
	{"core.load", "core.load_ms", time.Millisecond},
	{"core.robust_load", "core.robust_load_ms", time.Millisecond},
	{"cluster.validate", "cluster.validate_ms", time.Millisecond},
	{"workload.trace", "workload.trace_ms", time.Millisecond},
	{"cluster.boot", "cluster.boot_ms", time.Millisecond},
	{"cluster.serve", "cluster.serve_ms", time.Millisecond},
	{"plan.tier_a", "plan.tier_a_ms", time.Millisecond},
	{"plan.score", "plan.score_us", time.Microsecond},
	{"plan.tier_b", "plan.tier_b_ms", time.Millisecond},
}

func unitName(d time.Duration) string {
	if d == time.Microsecond {
		return "us"
	}
	return "ms"
}

// perLayer derives the per-layer metrics from the traced phase.
func (r *runResult) perLayer(w workload, ph *phase, j *judged, ref *phase, sp *spans, gcCPU, usedCPU, gcCycles float64) error {
	m := r.Metrics
	for _, s := range spanMetrics {
		if v, ok := sp.medianDur(s.span, s.unit); ok {
			m.put(s.metric, v, unitName(s.unit))
		}
	}
	if l, ok := w.(layered); ok && ph.errs[0] == nil {
		for k, v := range l.layers(ph.raws[0]) {
			unit := "ms"
			if k == "workpool.busy_frac" {
				unit = "frac"
			}
			m.put(k, v, unit)
		}
	}
	shares, err := cpuShares(r.profile)
	if err != nil {
		return err
	}
	for k, v := range shares {
		m.put("cpu."+k, v, "frac")
	}
	if usedCPU > 0 {
		m.put("gc.cpu_frac", gcCPU/usedCPU, "frac")
	}
	m.put("gc.cycles", gcCycles, "count")
	for k, v := range j.counts {
		unit := "count"
		switch {
		case strings.HasSuffix(k, "_ms"):
			unit = "ms"
		case strings.HasSuffix(k, "_us"):
			unit = "us"
		case strings.HasSuffix(k, "_mb"):
			unit = "MB"
		case strings.HasSuffix(k, "_rps"):
			unit = "1/s"
		case strings.HasSuffix(k, "_ratio"):
			unit = "frac"
		}
		m.put(k, v, unit)
	}
	traced, untraced := median(durMS(ph.durs)), median(durMS(ref.durs))
	if untraced > 0 {
		m.put("trace.overhead_pct", (traced/untraced-1)*100, "%")
	}
	return nil
}

// recordLedger rewrites the ledger from the prefix of every workload at
// the default and held-out seeds. It keeps the two seeds as they are.
func recordLedger(root string, led *ledger) error {
	led.Workloads = map[string]map[string]*ledgerEntry{}
	for _, name := range workloadNames {
		led.Workloads[name] = map[string]*ledgerEntry{}
		for _, seed := range []uint64{led.DefaultSeed, led.HeldOutSeed} {
			w, err := newWorkload(name, seed, root, led)
			if err != nil {
				return err
			}
			if err := w.setup(nil); err != nil {
				return err
			}
			ph, err := runPhase(w, 0, nil)
			if err != nil {
				return err
			}
			r := &runResult{}
			j, err := judgePhase(w, name, seed, ph, nil, r)
			if err != nil {
				return err
			}
			if len(r.Problems) > 0 {
				return fmt.Errorf("%s seed %d: %v", name, seed, r.Problems)
			}
			first, last := ph.marks[0], ph.marks[len(ph.marks)-1]
			e := &ledgerEntry{Counts: j.counts, AllocsPerOp: float64(last.allocs-first.allocs) / float64(ph.timed)}
			for _, v := range j.verdicts {
				e.Digests = append(e.Digests, v.digest.hex())
			}
			led.Workloads[name][strconv.FormatUint(seed, 10)] = e
			fmt.Fprintf(os.Stderr, "recorded %s seed %d: %d ops\n", name, seed, len(e.Digests))
		}
	}
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, ledgerFile), append(data, '\n'), 0o644)
}

// provenance records the host and the code a result set came from. The
// benchmark may run outside a git checkout, so the code is identified by
// the build's VCS stamp when there is one and always by a digest of the
// Go sources and module files under the root.
func provenance(root string) map[string]string {
	p := map[string]string{
		"cpu":        "unknown",
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p["commit"] = s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			fmt.Fprintf(h, "%s %d\n", rel, len(data))
			h.Write(data)
		}
		return nil
	})
	if err == nil {
		p["source_sha256"] = hex.EncodeToString(h.Sum(nil))
	}
	return p
}
