package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/pdr"
)

// workload is one benchmark workload. Ops run in index order on the state
// the latest setup built; op i's inputs depend only on the seed and i.
type workload interface {
	// setup builds everything the ops read. sp records host spans around
	// the calls into each layer (nil when untraced).
	setup(sp *spans) error
	// op runs op i and returns its simulated result.
	op(i int, sp *spans) (any, error)
	// judge digests one result and checks it against the invariants the
	// public stats promise.
	judge(raw any) verdict
	// perturb returns a copy of a result with one simulated number
	// changed; the self-check requires judge to reject it.
	perturb(raw any) any
	// layout says how the workload's ops relate to each other.
	layout() layout
	// finish turns counts summed over the prefix into reported counts.
	finish(sum map[string]float64) map[string]float64
}

// layout describes a workload's op sequence.
type layout struct {
	// prefix is the number of leading ops the ledger records.
	prefix int
	// period is the op count after which op inputs repeat (0: ops share
	// state and never repeat).
	period int
	// mix is the op count after which the mix of op kinds repeats; the
	// end-to-end metrics are medians over chunks of whole mixes.
	mix int
}

// verdict is the judged outcome of one op.
type verdict struct {
	digest digest
	events uint64             // simulated kernel events the op fired
	counts map[string]float64 // exact counts, summed over the prefix
	err    error              // broken invariant; nil when the op checks out
}

// tracedExtra is implemented by workloads whose traced run measures a
// layer with extra calls after an op, outside the op's timing.
type tracedExtra interface {
	extra(i int, raw any, opDur time.Duration, sp *spans) error
}

// replayer is implemented by workloads that re-check determinism more
// cheaply than by re-running op 0.
type replayer interface {
	replay(raw any) error
}

// layered is implemented by workloads whose results carry host-time
// per-layer numbers of their own.
type layered interface {
	layers(raw any) map[string]float64
}

func newWorkload(name string, seed uint64, root string, led *ledger) (workload, error) {
	switch name {
	case "reconfig":
		return &reconfigW{seed: seed}, nil
	case "fleet":
		return &fleetW{seed: seed}, nil
	case "plan":
		return &planW{seed: seed}, nil
	case "campaign":
		w := &campaignW{seed: seed}
		if seed == led.DefaultSeed {
			w.golden = filepath.Join(root, "EXPERIMENTS.md")
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want reconfig, fleet, plan, campaign or all)", name)
}

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"reconfig", "fleet", "plan", "campaign"}

// --- reconfig: the paper's own path -------------------------------------

// tableIGrid is the part of Table I's frequency axis that verifies.
var tableIGrid = []float64{100, 140, 180, 200, 240, 280}

// robustMHz are the over-clocks that hang (310) or corrupt (320) and fall
// back to the nominal clock.
var robustMHz = []float64{310, 320}

// heatStepsC are the die temperatures the heat steps cycle through, all
// above what the die reaches on its own under load.
var heatStepsC = []float64{55, 70, 85}

// reconfigBlock lists the frequencies of one op's reconfigurations: every
// Table I row that verifies seven times and each robust over-clock three
// times, so one load in eight is a robust load. The seed shuffles each
// block and picks every load's RP and ASP; each block starts with a heat
// step. Load times differ by frequency several-fold, so an op is the whole
// block: every op then does the same mix of work, and op times are
// comparable across ops and seeds.
var reconfigBlock = func() []float64 {
	var b []float64
	for _, f := range tableIGrid {
		for k := 0; k < 7; k++ {
			b = append(b, f)
		}
	}
	for _, f := range robustMHz {
		for k := 0; k < 3; k++ {
			b = append(b, f)
		}
	}
	return b
}()

type reconfigW struct {
	seed  uint64
	sys   *pdr.System
	rps   []string
	asps  []string
	size  map[string]int // image bytes by asp@rp
	rng   *sim.RNG
	block []float64 // the current block's frequencies, shuffled
	heat0 int       // the heat-step phase the seed drew
	freq  float64   // current over-clock; 0 forces a retune
}

// reconfigOut is the outcome of one reconfiguration of a block.
type reconfigOut struct {
	heatC      float64 // heat-step target, 0 when the op had none
	freqMHz    float64
	robust     bool
	res        pdr.Result
	rec        pdr.Recovery
	events     uint64
	loads      uint64
	imageBytes int
}

func (w *reconfigW) setup(sp *spans) error {
	t := sp.begin()
	sys, err := pdr.NewSystem(pdr.WithSeed(w.seed))
	sp.end("zynq.boot", t)
	if err != nil {
		return err
	}
	w.sys, w.rps, w.asps, w.size = sys, nil, nil, map[string]int{}
	for _, r := range sys.Regions() {
		w.rps = append(w.rps, r.Name)
	}
	for _, a := range sys.ASPs() {
		w.asps = append(w.asps, a.Name)
	}
	for _, rp := range w.rps {
		for _, asp := range w.asps {
			t := sp.begin()
			bs, err := sys.BuildBitstream(rp, asp)
			sp.end("bitstream.build", t)
			if err != nil {
				return err
			}
			w.size[asp+"@"+rp] = bs.Size()
		}
	}
	w.rng = sim.NewRNG(w.seed)
	w.heat0 = w.rng.Intn(len(heatStepsC))
	w.block = append(w.block[:0], reconfigBlock...)
	w.freq = 0
	return nil
}

// op runs block i: len(reconfigBlock) reconfigurations.
func (w *reconfigW) op(i int, sp *spans) (any, error) {
	outs := make([]*reconfigOut, len(reconfigBlock))
	for pos := range outs {
		o, err := w.load(i, pos, sp)
		if err != nil {
			return nil, fmt.Errorf("load %d of block %d: %w", pos, i, err)
		}
		outs[pos] = o
	}
	return outs, nil
}

// load runs reconfiguration pos of block i.
func (w *reconfigW) load(i, pos int, sp *spans) (*reconfigOut, error) {
	if pos == 0 {
		for k := len(w.block) - 1; k > 0; k-- {
			j := w.rng.Intn(k + 1)
			w.block[k], w.block[j] = w.block[j], w.block[k]
		}
	}
	f := w.block[pos]
	robust := f > tableIGrid[len(tableIGrid)-1]
	heat := pos == 0
	heatC := heatStepsC[(w.heat0+i)%len(heatStepsC)]
	rp := w.rps[w.rng.Intn(len(w.rps))]
	asp := w.asps[w.rng.Intn(len(w.asps))]

	p := w.sys.Platform()
	out := &reconfigOut{freqMHz: f, robust: robust, imageBytes: w.size[asp+"@"+rp]}
	ev0, loads0 := p.Kernel.Fired(), w.sys.Controller.Loads()
	if heat {
		out.heatC = heatC
		t := sp.begin()
		err := w.sys.HeatTo(heatC)
		sp.end("thermal.heat", t)
		if err != nil {
			return nil, err
		}
	}
	if f != w.freq {
		t := sp.begin()
		_, err := w.sys.SetFrequencyMHz(f)
		sp.end("clock.retune", t)
		if err != nil {
			return nil, err
		}
		w.freq = f
	}
	var err error
	if robust {
		t := sp.begin()
		out.rec, err = w.sys.RobustLoad(rp, asp)
		sp.end("core.robust_load", t)
		w.freq = out.rec.FallbackMHz
	} else {
		t := sp.begin()
		out.res, err = w.sys.LoadASP(rp, asp)
		sp.end("core.load", t)
	}
	if err != nil {
		return nil, err
	}
	out.events = p.Kernel.Fired() - ev0
	out.loads = w.sys.Controller.Loads() - loads0
	return out, nil
}

func hashResult(d *digest, r *pdr.Result) {
	d.str(r.RP)
	d.f64(r.FreqMHz)
	d.f64(r.TempC)
	d.bool(r.IRQReceived)
	d.f64(r.LatencyUS)
	d.f64(r.ThroughputMBs)
	d.bool(r.CRCValid)
	d.bool(r.CRCByIRQ)
	d.int(int(r.Outcome))
	d.bool(r.DataIntact)
}

func (w *reconfigW) judge(raw any) verdict {
	v := verdict{digest: newDigest(), counts: map[string]float64{}}
	for _, o := range raw.([]*reconfigOut) {
		lv := judgeLoad(o)
		v.digest.u64(uint64(lv.digest))
		v.events += lv.events
		for k, x := range lv.counts {
			v.counts[k] += x
		}
		if v.err == nil {
			v.err = lv.err
		}
	}
	return v
}

// judgeLoad digests and checks one reconfiguration.
func judgeLoad(o *reconfigOut) verdict {
	d := newDigest()
	d.f64(o.heatC)
	d.f64(o.freqMHz)
	d.bool(o.robust)
	attempts := []pdr.Result{o.res}
	if o.robust {
		attempts = o.rec.Attempts
		d.bool(o.rec.Recovered)
		d.f64(o.rec.FallbackMHz)
		d.f64(o.rec.TotalUS)
	}
	d.int(len(attempts))
	var crcFail, busyUS float64
	for i := range attempts {
		hashResult(&d, &attempts[i])
		if !attempts[i].CRCValid {
			crcFail++
		}
		if attempts[i].IRQReceived {
			busyUS += attempts[i].LatencyUS
		}
	}
	d.u64(o.events)
	d.u64(o.loads)
	d.int(o.imageBytes)

	v := verdict{digest: d, events: o.events}
	firstTry, fallbacks := 0.0, 0.0
	if len(attempts) > 0 && attempts[0].IRQReceived && attempts[0].CRCValid {
		firstTry = 1
	}
	if len(attempts) > 1 {
		fallbacks = 1
	}
	v.counts = map[string]float64{
		"sim.events":       float64(o.events),
		"core.ops":         1,
		"core.loads":       float64(o.loads),
		"core.first_try":   firstTry,
		"core.fallbacks":   fallbacks,
		"crcmon.crc_fail":  crcFail,
		"icap.sim_mb":      float64(len(attempts)*o.imageBytes) / 1e6,
		"icap.sim_busy_ms": busyUS / 1e3,
	}
	switch {
	case len(attempts) == 0:
		v.err = fmt.Errorf("no load attempts")
	case o.robust && !o.rec.Recovered:
		v.err = fmt.Errorf("robust load at %v MHz did not recover", o.freqMHz)
	case o.robust && len(attempts) > 1 && math.Abs(o.rec.FallbackMHz-100) > 1:
		v.err = fmt.Errorf("robust load fell back to %v MHz, want 100", o.rec.FallbackMHz)
	case !o.robust && !(o.res.IRQReceived && o.res.CRCValid && o.res.ThroughputMBs > 0):
		v.err = fmt.Errorf("load at %v MHz did not verify (irq %v, crc %v)", o.freqMHz, o.res.IRQReceived, o.res.CRCValid)
	}
	return v
}

func (w *reconfigW) perturb(raw any) any {
	outs := append([]*reconfigOut(nil), raw.([]*reconfigOut)...)
	o := *outs[0]
	if o.robust {
		o.rec.Recovered = false
	} else {
		o.res.CRCValid = false
	}
	outs[0] = &o
	return outs
}

func (w *reconfigW) layout() layout { return layout{prefix: 2, period: 0, mix: 1} }

func (w *reconfigW) finish(sum map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, k := range []string{"sim.events", "core.loads", "core.fallbacks", "crcmon.crc_fail", "icap.sim_mb", "icap.sim_busy_ms"} {
		out[k] = sum[k]
	}
	out["core.first_try_ratio"] = sum["core.first_try"] / sum["core.ops"]
	return out
}

// --- fleet: service, scheduler and router on fresh boards ---------------

type fleetShape struct {
	boards []string
	router string
}

// fleetShapes alternate op by op: a homogeneous fleet with
// least-outstanding routing and a mixed one with capacity weights.
var fleetShapes = []fleetShape{
	{boards: []string{"zedboard", "zedboard", "zedboard", "zedboard"}, router: "least-outstanding"},
	{boards: []string{"zedboard", "zybo-z7-10", "zc706"}, router: "weighted"},
}

const (
	fleetRequests = 192
	fleetRate     = 1600 // req/s
	fleetTraces   = 4    // distinct streams per shape
)

var fleetDeadline = 20 * sim.Millisecond

type fleetW struct {
	seed   uint64
	fleets []*pdr.Fleet
	traces [][]pdr.Trace
	tracer *pdr.Tracer // traced runs only
}

type fleetOut struct {
	stats    *pdr.FleetStats
	ft       *obs.FleetTrace // nil when untraced
	arrivals int
}

func (w *fleetW) fleetSeed() uint64 { return w.seed + 1 }

func (w *fleetW) options(s fleetShape) pdr.FleetOptions {
	return pdr.FleetOptions{
		Boards:  s.boards,
		Seed:    w.fleetSeed(),
		Router:  s.router,
		Prewarm: plan.DefaultASPs(),
		Workers: 1,
	}
}

func (w *fleetW) setup(sp *spans) error {
	w.fleets, w.traces, w.tracer = nil, nil, nil
	if sp != nil {
		w.tracer = pdr.NewTracer()
	}
	spec := pdr.ArrivalSpec{RatePerSec: fleetRate, Deadline: fleetDeadline}
	for si, s := range fleetShapes {
		t := sp.begin()
		f, err := pdr.NewFleet(w.options(s))
		sp.end("cluster.validate", t)
		if err != nil {
			return err
		}
		var trs []pdr.Trace
		for j := 0; j < fleetTraces; j++ {
			t := sp.begin()
			tr, err := f.OpenTrace(spec, w.seed*64+uint64(si*fleetTraces+j), fleetRequests, plan.DefaultASPs())
			sp.end("workload.trace", t)
			if err != nil {
				return err
			}
			trs = append(trs, tr)
		}
		w.fleets = append(w.fleets, f)
		w.traces = append(w.traces, trs)
	}
	return nil
}

func (w *fleetW) op(i int, sp *spans) (any, error) {
	si := i % len(fleetShapes)
	tr := w.traces[si][(i/len(fleetShapes))%fleetTraces]
	if sp == nil {
		st, err := w.fleets[si].Serve(tr)
		if err != nil {
			return nil, err
		}
		return &fleetOut{stats: st, arrivals: len(tr)}, nil
	}
	// The traced op builds the same fleet pdr.Fleet.Serve builds, split
	// at the boot/serve boundary and with a tracer attached.
	s := fleetShapes[si]
	router, err := cluster.RouterByName(s.router)
	if err != nil {
		return nil, err
	}
	specs := make([]cluster.BoardSpec, len(s.boards))
	for b, name := range s.boards {
		specs[b] = cluster.BoardSpec{Platform: name}
	}
	ft := w.tracer.Fleet(fmt.Sprintf("op/%05d", i), s.router)
	t := sp.begin()
	cf, err := cluster.New(cluster.FleetConfig{
		Boards:  specs,
		Seed:    w.fleetSeed(),
		FreqMHz: 200,
		Router:  router,
		Workers: 1,
		Trace:   ft,
		Service: cluster.ServiceTemplate{Prewarm: plan.DefaultASPs()},
	})
	sp.end("cluster.boot", t)
	if err != nil {
		return nil, err
	}
	t = sp.begin()
	st, err := cf.Serve(tr)
	sp.end("cluster.serve", t)
	if err != nil {
		return nil, err
	}
	return &fleetOut{stats: st, ft: ft, arrivals: len(tr)}, nil
}

func fleetCounts(st *pdr.FleetStats) map[string]float64 {
	a := &st.Aggregate
	return map[string]float64{
		"sim.events":                float64(st.KernelEvents),
		"ops":                       1,
		"hll.offered":               float64(a.Offered),
		"hll.completed":             float64(a.Completed),
		"hll.shed":                  float64(a.Shed),
		"hll.failed":                float64(a.Failures),
		"hll.lost":                  float64(a.Lost),
		"hll.deadline_miss":         float64(a.DeadlineMisses),
		"sched.hits":                float64(a.Cache.Hits),
		"sched.lookups":             float64(a.Cache.Hits + a.Cache.Misses),
		"sched.evictions":           float64(a.Cache.Evictions),
		"hll.stage_sim_ms":          a.StageTime.Seconds() * 1e3,
		"hll.queue_wait_p99_sim_us": a.QueueWaitUS.Percentile(99),
		"hll.sojourn_p99_sim_us":    a.SojournUS.Percentile(99),
		"cluster.goodput_sim_rps":   st.GoodputPerSec(),
	}
}

func (w *fleetW) judge(raw any) verdict {
	o := raw.(*fleetOut)
	d := newDigest()
	d.fleet(o.stats)
	v := verdict{digest: d, events: o.stats.KernelEvents, counts: fleetCounts(o.stats)}
	if o.ft != nil {
		var icapBusy, compute sim.Duration
		for b := range o.stats.Boards {
			for _, r := range o.ft.Board(b).Records() {
				switch {
				case r.Kind.IsSpan() && r.TID == obs.TIDICAP:
					icapBusy += r.Dur
				case r.Kind == obs.SpanCompute:
					compute += r.Dur
				}
			}
		}
		v.counts["obs.icap_busy_sim_ms"] = icapBusy.Seconds() * 1e3
		v.counts["obs.compute_sim_ms"] = compute.Seconds() * 1e3
	}
	v.err = checkFleet(o.stats, o.arrivals)
	return v
}

func (w *fleetW) perturb(raw any) any {
	o := *raw.(*fleetOut)
	st := *o.stats
	st.Aggregate.Completed++
	o.stats = &st
	return &o
}

func (w *fleetW) layout() layout {
	n := len(fleetShapes) * fleetTraces
	return layout{prefix: n, period: n, mix: len(fleetShapes)}
}

// perOpMeans are the fleet counts reported as a mean over the prefix's
// fleet runs rather than a total.
var perOpMeans = []string{"hll.queue_wait_p99_sim_us", "hll.sojourn_p99_sim_us", "cluster.goodput_sim_rps"}

func (w *fleetW) finish(sum map[string]float64) map[string]float64 { return finishFleet(sum) }

// finishFleet turns fleetCounts summed over several fleet runs into the
// reported counts.
func finishFleet(sum map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range sum {
		out[k] = v
	}
	if sum["ops"] > 0 {
		for _, k := range perOpMeans {
			out[k] = sum[k] / sum["ops"]
		}
	}
	if sum["sched.lookups"] > 0 {
		out["sched.hit_ratio"] = sum["sched.hits"] / sum["sched.lookups"]
	}
	delete(out, "ops")
	delete(out, "sched.hits")
	delete(out, "sched.lookups")
	return out
}

// --- plan: the two-tier capacity search ---------------------------------

// planRates rotate op by op (req/s).
var planRates = []float64{1600, 2200, 2800}

type planW struct {
	seed  uint64
	cands int
	memos []*pdr.PlanMemo // traced ops' memos, for the warm re-plan
}

func (w *planW) options(i int) pdr.PlanOptions {
	return pdr.PlanOptions{
		Workload: pdr.PlanWorkload{Seed: w.seed, RatePerSec: planRates[i%len(planRates)]},
		Workers:  1,
	}
}

func (w *planW) setup(sp *spans) error {
	w.cands = len(plan.Space{}.Enumerate())
	w.memos = nil
	return nil
}

func (w *planW) op(i int, sp *spans) (any, error) {
	o := w.options(i)
	if sp != nil {
		// A fresh memo is still a cold search; keeping it lets extra
		// time the warm re-plan of the same question.
		o.Memo = pdr.NewPlanMemo()
		w.memos = append(w.memos, o.Memo)
	}
	return pdr.Plan(context.Background(), o)
}

func (w *planW) extra(i int, raw any, opDur time.Duration, sp *spans) error {
	cold := raw.(*pdr.PlanResult)
	o := w.options(i)
	o.Memo = w.memos[i]
	t := sp.begin()
	if _, err := pdr.Plan(context.Background(), o); err != nil {
		return err
	}
	// The op itself was the cold search; cold minus warm is tier B.
	sp.add("plan.tier_b", t, opDur-time.Since(t))
	sur := plan.NewSurrogate()
	t = sp.begin()
	for _, c := range (plan.Space{}).Enumerate() {
		if _, err := sur.Score(c, cold.Workload, cold.SLO); err != nil {
			return err
		}
	}
	d := time.Since(t)
	sp.add("plan.tier_a", t, d)
	sp.add("plan.score", t, d/time.Duration(w.cands))
	return nil
}

func hashScored(d *digest, s *pdr.PlanScored) {
	d.str(s.Candidate.Label())
	p := &s.Pred
	for _, v := range []float64{p.Watts, p.P99US, p.Shed, p.UtilMax, p.EnergyPerMB} {
		d.f64(v)
	}
	d.bool(p.Feasible)
}

func (w *planW) judge(raw any) verdict {
	r := raw.(*pdr.PlanResult)
	d := newDigest()
	d.f64(r.Workload.RatePerSec)
	d.int(r.CandidatesScored)
	d.int(len(r.Frontier))
	for i := range r.Frontier {
		hashScored(&d, &r.Frontier[i])
	}
	d.int(len(r.Verified))
	var events uint64
	var err error
	for i := range r.Verified {
		v := &r.Verified[i]
		hashScored(&d, &v.Scored)
		d.f64(v.SimP99US)
		d.f64(v.SimShed)
		d.bool(v.Pass)
		d.bool(v.Memoized)
		d.fleet(v.Stats)
		if !v.Memoized {
			events += v.Stats.KernelEvents
		}
		if e := checkFleet(v.Stats, r.Workload.Requests); e != nil && err == nil {
			err = fmt.Errorf("verifying simulation %d: %w", i, e)
		}
	}
	for _, v := range []*pdr.PlanVerified{r.Chosen, r.StockBest, r.OverBest} {
		if v == nil {
			d.str("")
		} else {
			d.str(v.Candidate.Label())
		}
	}
	d.int(r.SimsRun)
	d.int(r.MemoHits)
	switch {
	case err != nil:
	case r.CandidatesScored != w.cands:
		err = fmt.Errorf("scored %d candidates, space has %d", r.CandidatesScored, w.cands)
	case len(r.Frontier) == 0:
		err = fmt.Errorf("empty frontier")
	case r.SimsRun > plan.DefaultMaxSims:
		err = fmt.Errorf("ran %d simulations, budget %d", r.SimsRun, plan.DefaultMaxSims)
	}
	counts := map[string]float64{
		"plan.candidates": float64(r.CandidatesScored),
		"plan.frontier":   float64(len(r.Frontier)),
		"plan.sims_run":   float64(r.SimsRun),
		"plan.memo_hits":  float64(r.MemoHits),
	}
	// Tier B's fresh simulations exercise the same service, scheduler
	// and router layers as the fleet workload; their counts sum here.
	for i := range r.Verified {
		if v := &r.Verified[i]; !v.Memoized {
			for k, x := range fleetCounts(v.Stats) {
				counts[k] += x
			}
		}
	}
	counts["sim.events"] = float64(events)
	return verdict{digest: d, events: events, err: err, counts: counts}
}

func (w *planW) perturb(raw any) any {
	r := *raw.(*pdr.PlanResult)
	r.CandidatesScored--
	return &r
}

func (w *planW) layout() layout {
	n := len(planRates)
	return layout{prefix: n, period: n, mix: n}
}

func (w *planW) finish(sum map[string]float64) map[string]float64 { return finishFleet(sum) }

// --- campaign: the whole registry on two workers ------------------------

// campaignWorkers is the campaign's worker budget: the host's two CPUs.
const campaignWorkers = 2

// replayScenarios are cheap scenarios re-run on their own to check that
// the campaign's reports are a pure function of the seed.
var replayScenarios = []string{"E1", "E5", "E8"}

type campaignW struct {
	seed   uint64
	golden string // EXPERIMENTS.md path at the committed seed, else ""
	want   []byte
}

func (w *campaignW) setup(sp *spans) error {
	w.want = nil
	if w.golden == "" {
		return nil
	}
	data, err := os.ReadFile(w.golden)
	if err != nil {
		return fmt.Errorf("read golden: %w", err)
	}
	w.want = data
	return nil
}

func (w *campaignW) op(_ int, _ *spans) (any, error) {
	c := pdr.NewCampaign(pdr.WithCampaignSeed(w.seed), pdr.WithWorkers(campaignWorkers))
	return c.Run(context.Background())
}

func hashReport(d *digest, r *pdr.Report) {
	d.str(r.ID)
	d.str(r.Render())
	d.u64(r.SimEvents)
}

func (w *campaignW) judge(raw any) verdict {
	res := raw.(*pdr.CampaignResult)
	d := newDigest()
	md := res.Markdown()
	d.str(md)
	v := verdict{counts: map[string]float64{}}
	for _, r := range res.Reports {
		d.u64(r.SimEvents)
		v.events += r.SimEvents
		v.counts["experiments."+r.ID+".sim_events"] = float64(r.SimEvents)
	}
	v.counts["sim.events"] = float64(v.events)
	v.digest = d
	scens := pdr.Scenarios()
	switch {
	case len(res.Reports) != len(scens):
		v.err = fmt.Errorf("%d reports, registry has %d scenarios", len(res.Reports), len(scens))
	case w.want != nil && md != string(w.want):
		v.err = fmt.Errorf("Markdown differs from EXPERIMENTS.md")
	default:
		for i, r := range res.Reports {
			if r.ID != scens[i].ID || len(r.Rows) == 0 || r.SimEvents == 0 {
				v.err = fmt.Errorf("report %d (%s): want scenario %s with rows and sim events", i, r.ID, scens[i].ID)
				break
			}
		}
	}
	return v
}

func (w *campaignW) perturb(raw any) any {
	r := *raw.(*pdr.CampaignResult)
	r.Reports = r.Reports[:len(r.Reports)-1]
	return &r
}

func (w *campaignW) layout() layout { return layout{prefix: 1, period: 1, mix: 1} }

func (w *campaignW) finish(sum map[string]float64) map[string]float64 { return sum }

func (w *campaignW) replay(raw any) error {
	full := raw.(*pdr.CampaignResult)
	c := pdr.NewCampaign(pdr.WithCampaignSeed(w.seed), pdr.WithScenarios(replayScenarios...), pdr.WithWorkers(1))
	sub, err := c.Run(context.Background())
	if err != nil {
		return err
	}
	for _, r := range sub.Reports {
		a, b := newDigest(), newDigest()
		hashReport(&a, r)
		for _, f := range full.Reports {
			if f.ID == r.ID {
				hashReport(&b, f)
			}
		}
		if a != b {
			return fmt.Errorf("%s re-run alone differs from the campaign's report", r.ID)
		}
	}
	return nil
}

func (w *campaignW) layers(raw any) map[string]float64 {
	res := raw.(*pdr.CampaignResult)
	out := map[string]float64{}
	slowest := 0.0
	for _, r := range res.Reports {
		out["experiments."+r.ID+".wall_ms"] = r.WallMS
		slowest = math.Max(slowest, r.WallMS)
	}
	out["experiments.slowest_ms"] = slowest
	var busy time.Duration
	for _, p := range res.Pool {
		busy += p.Busy
	}
	if res.Elapsed > 0 && res.Workers > 0 {
		out["workpool.busy_frac"] = float64(busy) / float64(time.Duration(res.Workers)*res.Elapsed)
	}
	return out
}
