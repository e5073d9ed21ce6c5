// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper (one benchmark per artefact, DESIGN.md §4)
// plus micro-benchmarks of the hot substrate paths. Benchmarks report the
// simulated quantities (throughput, latency, efficiency) as custom metrics
// so `go test -bench` output doubles as the reproduction record.
package repro_test

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/pdr"
)

// benchEnv builds a fresh measurement environment, outside the timed loop:
// callers invoke it from inside the b.N loop (each experiment needs a cold
// platform), so it stops the benchmark clock around construction to keep
// env setup out of the measurement.
func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	b.StopTimer()
	env, err := experiments.NewEnv(42)
	if err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
	return env
}

func mustCell(b *testing.B, rep *experiments.Report, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(rep.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, rep.Rows[row][col], err)
	}
	return v
}

// BenchmarkTableI_FrequencySweep regenerates Table I (E1): the nine-point
// over-clocking sweep. Metrics: throughput at the nominal 100 MHz and at
// the 280 MHz maximum.
func BenchmarkTableI_FrequencySweep(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.TableI(benchEnv(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mustCell(b, rep, 0, 2), "MB/s@100MHz")
	b.ReportMetric(mustCell(b, rep, 5, 2), "MB/s@280MHz")
}

// benchScenario runs a registered scenario through the canonical
// sequential registry path — the same shards and merge the campaign,
// pdrbench and EXPERIMENTS.md use, so all consumers report one number.
func benchScenario(b *testing.B, id string) *experiments.Report {
	b.Helper()
	return benchFleetScenario(b, id, 0)
}

// benchFleetScenario is benchScenario with the fleet scenarios' epoch
// fan-out width applied (0/1 = the sequential loop). Output is
// byte-identical at every width, so the sub-benchmarks measure pure wall
// clock against one fixed workload.
func benchFleetScenario(b *testing.B, id string, fleetWorkers int) *experiments.Report {
	b.Helper()
	s, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("scenario %s not registered", id)
	}
	cfg := experiments.Config{Seed: 42, FleetWorkers: fleetWorkers}
	rep, err := experiments.RunSequential(context.Background(), s, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// fleetBenchWorkers is the worker axis the fleet-scenario benchmarks sweep
// (`bash hostbench/run.sh` tracks the same scenarios as
// experiments.E13/E15/E16.wall_ms).
var fleetBenchWorkers = []int{1, 4, 8}

// BenchmarkFig5_Curve regenerates Fig. 5 (E2): the fine-grained
// throughput-frequency curve with its 200 MHz knee.
func BenchmarkFig5_Curve(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = benchScenario(b, "E2")
	}
	b.ReportMetric(float64(len(rep.Series[0].Points)), "points")
}

// BenchmarkTempStress_Matrix regenerates the Sec. IV-A heat-gun matrix
// (E3): 7 frequencies × 7 temperatures, exactly one failing cell.
func BenchmarkTempStress_Matrix(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = benchScenario(b, "E3")
	}
	fails := 0.0
	for _, row := range rep.Rows {
		for _, c := range row[1:] {
			if c == "FAIL" {
				fails++
			}
		}
	}
	b.ReportMetric(fails, "failing-cells")
}

// BenchmarkFig6_PowerGrid regenerates Fig. 6 (E4): P_PDR over the
// frequency × temperature grid.
func BenchmarkFig6_PowerGrid(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = benchScenario(b, "E4")
	}
	b.ReportMetric(mustCell(b, rep, 0, 1), "W@100MHz/40C")
	b.ReportMetric(mustCell(b, rep, 5, 4), "W@280MHz/100C")
}

// BenchmarkTableII_PowerEfficiency regenerates Table II (E5) and reports
// the knee's performance-per-watt.
func BenchmarkTableII_PowerEfficiency(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.TableII(benchEnv(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mustCell(b, rep, 3, 3), "MB/J@200MHz")
}

// BenchmarkTableIII_RelatedWork regenerates the related-work comparison
// (E6).
func BenchmarkTableIII_RelatedWork(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.TableIII(benchEnv(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mustCell(b, rep, 3, 3), "MB/s-thiswork")
	b.ReportMetric(mustCell(b, rep, 2, 3), "MB/s-hkt2011")
}

// BenchmarkSecVI_SRAMPipeline regenerates the proposed-system measurement
// (E7): raw and compressed streaming from the QDR SRAM.
func BenchmarkSecVI_SRAMPipeline(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.SecVI(benchEnv(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mustCell(b, rep, 0, 3), "MB/s-raw")
	b.ReportMetric(mustCell(b, rep, 1, 3), "MB/s-compressed")
}

// BenchmarkAblation_CRCOverhead (A1): read-back interference on a
// foreground load.
func BenchmarkAblation_CRCOverhead(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.AblationCRC(benchEnv(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mustCell(b, rep, 1, 1)-mustCell(b, rep, 0, 1), "us-interference")
}

// BenchmarkAblation_KneeDecomposition (A2): what the plateau is made of.
func BenchmarkAblation_KneeDecomposition(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.AblationKnee(benchEnv(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mustCell(b, rep, 0, 1), "MB/s-calibrated")
	b.ReportMetric(mustCell(b, rep, 2, 1), "MB/s-2xport")
}

// BenchmarkAblation_RobustGuard (A3): the recovery episode's cost.
func BenchmarkAblation_RobustGuard(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.AblationRobustGuard(benchEnv(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mustCell(b, rep, 1, 2), "us-recovery")
}

// BenchmarkSingleLoad measures one partial reconfiguration end to end at
// each Table I frequency (simulated latency as the metric, wall time as
// the cost of simulating it).
func BenchmarkSingleLoad(b *testing.B) {
	for _, freq := range []float64{100, 200, 280} {
		b.Run(strconv.Itoa(int(freq))+"MHz", func(b *testing.B) {
			sys, err := pdr.NewSystem(pdr.WithSeed(42))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.SetFrequencyMHz(freq); err != nil {
				b.Fatal(err)
			}
			var last pdr.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last, err = sys.LoadASP("RP1", "fir128")
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.LatencyUS, "sim-us")
			b.ReportMetric(last.ThroughputMBs, "sim-MB/s")
		})
	}
}

// BenchmarkCampaignSuite runs the full E1–A5 suite through the Campaign
// API at several worker counts. Wall time per op is the headline: on a
// multi-core host the sharded suite should approach (slowest shard +
// scheduling) rather than the sequential sum. `bash hostbench/run.sh
// --workload campaign` tracks the same run as cpu_s_per_op.
func BenchmarkCampaignSuite(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run("parallel-"+strconv.Itoa(workers), func(b *testing.B) {
			var res *pdr.CampaignResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = pdr.NewCampaign(
					pdr.WithCampaignSeed(42),
					pdr.WithWorkers(workers),
				).Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Units), "shards")
			b.ReportMetric(float64(len(res.Reports)), "scenarios")
		})
	}
}

// BenchmarkSaturationSweep regenerates the saturation scenario (E11): the
// open-loop latency-vs-offered-load sweep over every platform board, with
// and without the DRAM bitstream cache. Metrics: the ZedBoard's detected
// saturation knee in both modes (the cache's knee shift is the scenario's
// headline) and the cached p99 at the lowest offered rate.
func BenchmarkSaturationSweep(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = benchScenario(b, "E11")
	}
	series := map[string][]sim.Point{}
	for _, s := range rep.Series {
		series[s.Name] = s.Points
	}
	kneeCache, _ := experiments.SaturationKnee(series["e11_zedboard_cache"])
	kneeNone, _ := experiments.SaturationKnee(series["e11_zedboard_nocache"])
	b.ReportMetric(kneeCache, "knee-cache-req/s")
	b.ReportMetric(kneeNone, "knee-nocache-req/s")
	if pts := series["e11_zedboard_cache"]; len(pts) > 0 {
		b.ReportMetric(pts[0].Y/1000, "p99-ms-cache-lowrate")
	}
}

// BenchmarkSchedPolicies regenerates the policy × cache-budget comparison
// (E12). Metric: the p99 spread between the best and worst policy at the
// thrashing 4-image budget.
func BenchmarkSchedPolicies(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = benchScenario(b, "E12")
	}
	best, worst := 0.0, 0.0
	for _, s := range rep.Series {
		if len(s.Points) == 0 {
			continue
		}
		p99 := s.Points[0].Y
		if best == 0 || p99 < best {
			best = p99
		}
		if p99 > worst {
			worst = p99
		}
	}
	b.ReportMetric(worst/best, "p99-policy-spread")
}

// BenchmarkFleetSweep regenerates the scale-out scenario (E13): goodput and
// p99 versus fleet size at a fixed offered load above the single-board
// knee, homogeneous and mixed fleets, plus the autoscaled points. Metrics:
// the homogeneous fleet's goodput at 1 and 8 boards and the scaling factor
// between them (the scenario's headline).
func BenchmarkFleetSweep(b *testing.B) {
	for _, workers := range fleetBenchWorkers {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			var rep *experiments.Report
			for i := 0; i < b.N; i++ {
				rep = benchFleetScenario(b, "E13", workers)
			}
			series := map[string][]sim.Point{}
			for _, s := range rep.Series {
				series[s.Name] = s.Points
			}
			if pts := series["e13_zedboard_goodput"]; len(pts) > 1 {
				first, last := pts[0], pts[len(pts)-1]
				b.ReportMetric(first.Y, "goodput-1board-req/s")
				b.ReportMetric(last.Y, "goodput-8boards-req/s")
				if first.Y > 0 {
					b.ReportMetric(last.Y/first.Y, "goodput-scaling")
				}
			}
		})
	}
}

// BenchmarkRoutingPolicies regenerates the routing scenario (E14). Metrics:
// bitstream-affinity's cache hit ratio against round-robin's, and the p99
// advantage, under skewed image popularity on cache-constrained boards.
func BenchmarkRoutingPolicies(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = benchScenario(b, "E14")
	}
	series := map[string][]sim.Point{}
	for _, s := range rep.Series {
		series[s.Name] = s.Points
	}
	aff, rr := series["e14_affinity"], series["e14_round-robin"]
	if len(aff) == 2 && len(rr) == 2 {
		b.ReportMetric(100*aff[0].Y, "affinity-hit-%")
		b.ReportMetric(100*rr[0].Y, "roundrobin-hit-%")
		if aff[1].Y > 0 {
			b.ReportMetric(rr[1].Y/aff[1].Y, "p99-advantage")
		}
	}
}

// BenchmarkChaosStorm regenerates the chaos scenario (E15): every routing
// policy serving the same warm fleet through the same seeded fault storm
// with the self-healing machinery on. Metrics: the headline spread between
// affinity (degrades worst — a crash funnels its keys onto one ring
// successor) and least-outstanding (degrades gracefully — queue depth
// already encodes board health), in goodput and p99.
func BenchmarkChaosStorm(b *testing.B) {
	for _, workers := range fleetBenchWorkers {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			var rep *experiments.Report
			for i := 0; i < b.N; i++ {
				rep = benchFleetScenario(b, "E15", workers)
			}
			series := map[string][]sim.Point{}
			for _, s := range rep.Series {
				series[s.Name] = s.Points
			}
			aff, jsq := series["e15_affinity"], series["e15_least-outstanding"]
			if len(aff) == 3 && len(jsq) == 3 {
				b.ReportMetric(100*aff[0].Y, "affinity-avail-%")
				b.ReportMetric(100*jsq[0].Y, "jsq-avail-%")
				b.ReportMetric(aff[1].Y, "affinity-goodput-req/s")
				b.ReportMetric(jsq[1].Y, "jsq-goodput-req/s")
				if aff[2].Y > 0 {
					b.ReportMetric(aff[2].Y/jsq[2].Y, "p99-degradation-ratio")
				}
			}
		})
	}
}

// BenchmarkDiurnal regenerates the diurnal scenario (E16): both scaler
// policies serving the same simulated day — a diurnal base rate with a
// flash crowd that ramps inside one scaler window — on cold six-board
// fleets. Metrics: the flash-window shed fraction per policy (the
// headline: the forecast retargets several boards after one observed
// window while the reactive policy climbs one per window) and the
// goodput each sustains.
func BenchmarkDiurnal(b *testing.B) {
	for _, workers := range fleetBenchWorkers {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			var rep *experiments.Report
			for i := 0; i < b.N; i++ {
				rep = benchFleetScenario(b, "E16", workers)
			}
			series := map[string][]sim.Point{}
			for _, s := range rep.Series {
				series[s.Name] = s.Points
			}
			re, pr := series["e16_reactive"], series["e16_predictive"]
			if len(re) == 4 && len(pr) == 4 {
				b.ReportMetric(100*re[0].Y, "reactive-flash-shed-%")
				b.ReportMetric(100*pr[0].Y, "predictive-flash-shed-%")
				b.ReportMetric(re[1].Y, "reactive-goodput-req/s")
				b.ReportMetric(pr[1].Y, "predictive-goodput-req/s")
				if pr[0].Y > 0 {
					b.ReportMetric(re[0].Y/pr[0].Y, "flash-shed-ratio")
				}
			}
		})
	}
}

// BenchmarkPlanSurrogate measures the planner's tier A: closed-form
// scoring of the full default candidate space. The candidates/sec metric
// is the rate that lets the search evaluate thousands of configurations
// before spending a single fleet simulation.
func BenchmarkPlanSurrogate(b *testing.B) {
	cands := pdr.PlanSpace{}.Enumerate()
	w := pdr.PlanWorkload{Seed: 42, RatePerSec: 2200, Requests: 192, ASPs: plan.DefaultASPs(), Deadline: 20 * sim.Millisecond}
	slo := pdr.PlanSLO{P99: 12 * sim.Millisecond, MaxShed: 0.01}
	sur := plan.NewSurrogate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cands {
			if _, err := sur.Score(c, w, slo); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	if perOp > 0 {
		b.ReportMetric(float64(len(cands))/(perOp/1e9), "candidates/s")
	}
}

// BenchmarkPlanSearch measures the end-to-end two-tier plan search (the
// E17 question) cold and with a warm memo cache: the warm run answers from
// cached simulations, so the gap is tier B's entire simulation cost.
func BenchmarkPlanSearch(b *testing.B) {
	opts := pdr.PlanOptions{
		Workload: pdr.PlanWorkload{Seed: 42 ^ 0xE17, RatePerSec: 2200, Requests: 192, Deadline: 20 * sim.Millisecond},
		Workers:  4,
	}
	run := func(b *testing.B, memo *pdr.PlanMemo) *pdr.PlanResult {
		o := opts
		o.Memo = memo
		res, err := pdr.Plan(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.Run("memo=cold", func(b *testing.B) {
		var res *pdr.PlanResult
		for i := 0; i < b.N; i++ {
			res = run(b, pdr.NewPlanMemo())
		}
		b.ReportMetric(float64(res.CandidatesScored), "scored")
		b.ReportMetric(float64(res.SimsRun), "sims")
	})
	b.Run("memo=warm", func(b *testing.B) {
		memo := pdr.NewPlanMemo()
		run(b, memo) // prime outside the timed loop
		b.ResetTimer()
		var res *pdr.PlanResult
		for i := 0; i < b.N; i++ {
			res = run(b, memo)
		}
		b.ReportMetric(float64(res.MemoHits), "memo-hits")
		b.ReportMetric(float64(res.SimsRun), "sims")
	})
}

// --- substrate micro-benchmarks ---

func benchFrames(n int) [][]uint32 {
	rng := sim.NewRNG(1)
	frames := make([][]uint32, n)
	for i := range frames {
		f := make([]uint32, fabric.FrameWords)
		for w := range f {
			if rng.Bool(0.5) {
				f[w] = rng.Uint32()
			}
		}
		frames[i] = f
	}
	return frames
}

// BenchmarkBitstreamBuild measures assembling the 529 KB partial bitstream.
func BenchmarkBitstreamBuild(b *testing.B) {
	dev := platform.Default().NewDevice()
	rp := platform.Default().RPs(dev)[0]
	frames := benchFrames(dev.RegionFrames(rp))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bitstream.Build(dev, rp, "bench", frames); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(bitstream.ExpectedSize(1308)))
}

// BenchmarkConfigCRC measures the running configuration CRC over a full
// FDRI payload.
func BenchmarkConfigCRC(b *testing.B) {
	frames := benchFrames(1308)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var crc bitstream.ConfigCRC
		for _, f := range frames {
			crc.UpdateWords(bitstream.RegFDRI, f)
		}
	}
	b.SetBytes(int64(1308 * fabric.FrameWords * 4))
}

// BenchmarkCompress / BenchmarkDecompress measure the Sec.-VI RLE codec on
// a realistic image.
func BenchmarkCompress(b *testing.B) {
	dev := platform.Default().NewDevice()
	rp := platform.Default().RPs(dev)[0]
	asp, err := workload.LibraryASP("fir128")
	if err != nil {
		b.Fatal(err)
	}
	bs, err := asp.Bitstream(dev, rp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bitstream.Compress(bs.Raw); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(bs.Raw)))
}

func BenchmarkDecompress(b *testing.B) {
	dev := platform.Default().NewDevice()
	rp := platform.Default().RPs(dev)[0]
	asp, err := workload.LibraryASP("fir128")
	if err != nil {
		b.Fatal(err)
	}
	bs, err := asp.Bitstream(dev, rp)
	if err != nil {
		b.Fatal(err)
	}
	comp, err := bitstream.Compress(bs.Raw)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bitstream.Decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(bs.Raw)))
}

// BenchmarkKernelEvents measures the DES kernel's event throughput (the
// simulation's own speed limit).
func BenchmarkKernelEvents(b *testing.B) {
	k := sim.NewKernel()
	count := 0
	var tick func()
	tick = func() {
		count++
		k.Schedule(10*sim.Nanosecond, tick)
	}
	k.Schedule(10*sim.Nanosecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// BenchmarkTraceOverhead measures the observability layer's cost on the
// fleet serve path (the same path BenchmarkFleetSweep exercises): "off"
// is the nil-tracer run — the disabled path must stay within 1 % of the
// pre-observability wall clock and add zero allocations per emission
// site (TestDisabledPathZeroAlloc pins the alloc half of that contract)
// — and "on" attaches a full tracer collecting spans, events, and the
// 1 ms metric grid. The simulated outputs are byte-identical either way;
// only wall clock and memory move. `bash hostbench/run.sh --trace 1`
// tracks the overhead as trace.overhead_pct.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "off"
		if traced {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var tracer *pdr.Tracer
			if traced {
				tracer = pdr.NewTracer()
			}
			f, err := pdr.NewFleet(pdr.FleetOptions{
				Boards:  []string{"zedboard", "zedboard", "zedboard"},
				Seed:    42,
				Router:  "least-outstanding",
				Prewarm: []string{"fir128", "sha3", "aes-gcm", "fft1k"},
				Tracer:  tracer,
			})
			if err != nil {
				b.Fatal(err)
			}
			stream, err := f.OpenTrace(pdr.ArrivalSpec{
				RatePerSec: 900,
				Deadline:   20 * sim.Millisecond,
			}, 7, 192, []string{"fir128", "sha3", "aes-gcm", "fft1k"})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Serve(stream); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Contention (A4): reconfiguration throughput under
// competing accelerator memory traffic.
func BenchmarkAblation_Contention(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.AblationContention(benchEnv(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mustCell(b, rep, 0, 1), "MB/s-idle")
	b.ReportMetric(mustCell(b, rep, 3, 1), "MB/s-400MBs-traffic")
}

// BenchmarkAblation_Scrub (A5): SEU repair versus full reload.
func BenchmarkAblation_Scrub(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.AblationScrub(benchEnv(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mustCell(b, rep, 0, 3), "us-scrub-1seu")
	b.ReportMetric(mustCell(b, rep, 3, 3), "us-full-reload")
}
