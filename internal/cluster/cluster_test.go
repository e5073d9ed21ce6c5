package cluster

import (
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

var testASPs = []string{"fir128", "sha3", "aes-gcm", "fft1k"}

func mustFleet(t *testing.T, cfg FleetConfig) *Fleet {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustTrace(t *testing.T, spec workload.ArrivalSpec, seed uint64, n int, rps []string) workload.Trace {
	t.Helper()
	tr, err := spec.Generate(seed, n, rps, testASPs)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func zedboards(n int) []BoardSpec {
	out := make([]BoardSpec, n)
	for i := range out {
		out[i] = BoardSpec{Platform: "zedboard"}
	}
	return out
}

func TestFleetServesEveryRequest(t *testing.T) {
	f := mustFleet(t, FleetConfig{
		Boards:  zedboards(3),
		Seed:    42,
		FreqMHz: 200,
		Router:  LeastOutstanding(),
		Service: ServiceTemplate{Prewarm: testASPs},
	})
	tr := mustTrace(t, workload.ArrivalSpec{RatePerSec: 800, Deadline: 20 * sim.Millisecond}, 7, 96, f.RPNames())
	st, err := f.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	agg := st.Aggregate
	if agg.Offered != 96 {
		t.Errorf("offered = %d, want 96", agg.Offered)
	}
	if agg.Completed+agg.Shed+agg.Failures != 96 {
		t.Errorf("completed %d + shed %d + failed %d ≠ 96", agg.Completed, agg.Shed, agg.Failures)
	}
	if agg.SojournUS.N() != agg.Completed {
		t.Errorf("sojourn samples %d ≠ completed %d", agg.SojournUS.N(), agg.Completed)
	}
	total := 0
	for _, b := range st.Boards {
		if b.Stats.Offered != b.Assigned {
			t.Errorf("board %d offered %d ≠ assigned %d", b.Index, b.Stats.Offered, b.Assigned)
		}
		total += b.Assigned
	}
	if total != 96 {
		t.Errorf("routed total = %d, want 96", total)
	}
	if st.PeakActive != 3 || st.FinalActive != 3 {
		t.Errorf("fixed fleet active counts = %d/%d, want 3/3", st.PeakActive, st.FinalActive)
	}
	if st.GoodputPerSec() <= 0 {
		t.Error("goodput must be positive")
	}
}

// TestFleetOfOneMatchesSingleBoardService pins the fleet path to the
// single-board service: a one-board fleet is just hll.Service with a
// router in front, so its per-board stats must equal a direct Serve on an
// identically built board (same derived seed, same service template) —
// any admission- or dispatch-timing drift in the cluster front-end trips
// this.
func TestFleetOfOneMatchesSingleBoardService(t *testing.T) {
	cfg := FleetConfig{
		Boards:  zedboards(1),
		Seed:    42,
		FreqMHz: 200,
		Service: ServiceTemplate{CacheBudgetImages: 2, Policy: "sbf"},
	}
	spec := workload.ArrivalSpec{RatePerSec: 600, Deadline: 20 * sim.Millisecond, Tenants: []string{"a", "b"}}
	tr := mustTrace(t, spec, 9, 48, mustFleet(t, cfg).RPNames())

	// The reference: the fleet's own board construction, served directly.
	ref, err := newBoard(cfg, cfg.Boards[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ref.svc.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}

	f := mustFleet(t, cfg)
	st, err := f.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Boards[0].Stats, direct) {
		t.Errorf("one-board fleet stats diverge from a direct service run:\n%+v\nvs\n%+v",
			st.Boards[0].Stats, direct)
	}
	if st.Boards[0].Stats.Completed != st.Aggregate.Completed {
		t.Error("one-board aggregate must equal the board's own stats")
	}
}

func TestFleetDeterministicAcrossRuns(t *testing.T) {
	for _, router := range RouterNames() {
		run := func() *FleetStats {
			r, err := RouterByName(router)
			if err != nil {
				t.Fatal(err)
			}
			f := mustFleet(t, FleetConfig{
				Boards: []BoardSpec{
					{Platform: "zedboard"}, {Platform: "zybo-z7-10"}, {Platform: "zc706"},
				},
				Seed:    42,
				FreqMHz: 200,
				Router:  r,
				Service: ServiceTemplate{CacheBudgetImages: 4},
			})
			tr := mustTrace(t, workload.ArrivalSpec{RatePerSec: 900, Skew: 1.1, Deadline: 20 * sim.Millisecond}, 11, 72, f.RPNames())
			st, err := f.Serve(tr)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		if a, b := run(), run(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: mixed-fleet runs diverge", router)
		}
	}
}

// TestCommonRPsLeavesProfilesUntouched pins that CommonRPs returns a slice
// of its own: the profiles' RP names and plans are shared by every caller,
// so neither the intersection nor a caller writing into the result may
// reach them.
func TestCommonRPsLeavesProfilesUntouched(t *testing.T) {
	zed := platform.Default()
	zybo, _ := platform.Lookup("zybo-z7-10")
	profs := []*platform.Profile{zed, zybo}
	names := make([][]string, len(profs))
	rps := make([][]fabric.Region, len(profs))
	for i, p := range profs {
		names[i] = append([]string(nil), p.RPNames()...)
		rps[i] = append([]fabric.Region(nil), p.RPs()...)
	}
	for _, fleet := range [][]BoardSpec{
		{{Platform: "zedboard"}, {Platform: "zybo-z7-10"}},
		{{Platform: "zybo-z7-10"}, {Platform: "zedboard"}},
		{{Platform: "zedboard"}},
	} {
		common, err := CommonRPs(fleet)
		if err != nil {
			t.Fatal(err)
		}
		if len(fleet) == 2 && !reflect.DeepEqual(common, []string{"RP1", "RP2", "RP3"}) {
			t.Errorf("%v: common RPs = %v", fleet, common)
		}
		for i := range common {
			common[i] = "clobbered"
		}
	}
	for i, p := range profs {
		if !reflect.DeepEqual(p.RPNames(), names[i]) {
			t.Errorf("%s: RPNames() = %v after CommonRPs, want %v", p.Name, p.RPNames(), names[i])
		}
		if !reflect.DeepEqual(p.RPs(), rps[i]) {
			t.Errorf("%s: RPs() = %v after CommonRPs, want %v", p.Name, p.RPs(), rps[i])
		}
	}
}

func TestFleetMixedPlatformsShareCommonRPs(t *testing.T) {
	f := mustFleet(t, FleetConfig{
		Boards: []BoardSpec{{Platform: "zc706"}, {Platform: "zybo-z7-10"}},
		Seed:   1,
	})
	// zc706 has RP1…RP7, zybo RP1…RP3: the servable set is the intersection.
	want := []string{"RP1", "RP2", "RP3"}
	if got := f.RPNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("common RPs = %v, want %v", got, want)
	}
	// A trace touching an RP outside the common set is rejected at the door.
	tr := workload.Trace{{RP: "RP5", ASP: "fir128"}}
	if _, err := f.Serve(tr); err == nil {
		t.Error("trace outside the common RP set must fail")
	}
}

func TestFleetAffinityKeepsImagesOnBoards(t *testing.T) {
	// Under affinity routing each image key lands on one board, so the
	// number of distinct images a board's cache sees stays well below the
	// full working set; round-robin spreads every image everywhere. With a
	// cache too small for the whole set, that shows up directly as a
	// hit-ratio gap.
	serve := func(r Router) *FleetStats {
		f := mustFleet(t, FleetConfig{
			Boards:  zedboards(4),
			Seed:    42,
			FreqMHz: 200,
			Router:  r,
			Service: ServiceTemplate{CacheBudgetImages: 5},
		})
		tr := mustTrace(t, workload.ArrivalSpec{RatePerSec: 400, Skew: 1.0, Deadline: 20 * sim.Millisecond}, 13, 160, f.RPNames())
		st, err := f.Serve(tr)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	aff := serve(Affinity())
	rr := serve(RoundRobin())
	if aff.CacheHitRatio() <= rr.CacheHitRatio() {
		t.Errorf("affinity hit ratio %.2f should beat round-robin %.2f under a constrained cache",
			aff.CacheHitRatio(), rr.CacheHitRatio())
	}
}

func TestFleetAutoscalerGrowsUnderLoad(t *testing.T) {
	f := mustFleet(t, FleetConfig{
		Boards:  zedboards(4),
		Seed:    42,
		FreqMHz: 200,
		Router:  LeastOutstanding(),
		Autoscaler: &AutoscalerConfig{
			Window:  20 * sim.Millisecond,
			Min:     1,
			Max:     4,
			ShedHi:  0.05,
			P99HiUS: 10_000,
			ShedLo:  0,
			P99LoUS: 2_000,
		},
		Service: ServiceTemplate{QueueCap: 4, Prewarm: testASPs},
	})
	// Far above one board's capacity: the single starting board sheds and
	// its p99 blows out, so the scaler must grow.
	tr := mustTrace(t, workload.ArrivalSpec{RatePerSec: 2000, Deadline: 20 * sim.Millisecond}, 7, 192, f.RPNames())
	st, err := f.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakActive <= 1 {
		t.Errorf("autoscaler never grew: peak active = %d", st.PeakActive)
	}
	if len(st.ScaleEvents) == 0 {
		t.Error("no scale events recorded")
	}
	for _, ev := range st.ScaleEvents {
		if ev.To < 1 || ev.To > 4 || ev.From < 1 || ev.From > 4 {
			t.Errorf("scale event outside bounds: %+v", ev)
		}
	}
	// Later boards actually absorbed load.
	if st.Boards[1].Assigned == 0 {
		t.Error("grown board received no traffic")
	}
}

func TestFleetAutoscalerShrinksWhenIdle(t *testing.T) {
	f := mustFleet(t, FleetConfig{
		Boards:  zedboards(3),
		Seed:    42,
		FreqMHz: 200,
		Autoscaler: &AutoscalerConfig{
			Window:  20 * sim.Millisecond,
			Min:     1,
			Max:     3,
			ShedHi:  0.5,
			P99HiUS: 1e9,
			ShedLo:  0.1,
			P99LoUS: 1e9, // everything counts as comfortable
		},
		Service: ServiceTemplate{Prewarm: testASPs},
	})
	// Start forced to Min=1; nothing ever trips the grow thresholds, and a
	// trickle of comfortable traffic keeps tripping the shrink clause —
	// which must clamp at Min instead of going below.
	tr := mustTrace(t, workload.ArrivalSpec{RatePerSec: 50, Deadline: time200ms}, 7, 24, f.RPNames())
	st, err := f.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalActive != 1 {
		t.Errorf("final active = %d, want clamped at Min 1", st.FinalActive)
	}
}

const time200ms = 200 * sim.Millisecond

func TestFleetConfigErrors(t *testing.T) {
	if _, err := New(FleetConfig{}); err == nil {
		t.Error("empty fleet must fail")
	}
	if _, err := New(FleetConfig{Boards: []BoardSpec{{Platform: "nope"}}}); err == nil {
		t.Error("unknown platform must fail")
	}
	if _, err := New(FleetConfig{
		Boards:     zedboards(2),
		Autoscaler: &AutoscalerConfig{Window: sim.Millisecond, Min: 1, Max: 5},
	}); err == nil {
		t.Error("autoscaler max beyond fleet size must fail")
	}
	if _, err := New(FleetConfig{
		Boards:     zedboards(2),
		Autoscaler: &AutoscalerConfig{Window: 0, Min: 1, Max: 2},
	}); err == nil {
		t.Error("non-positive window must fail")
	}
	if _, err := New(FleetConfig{Boards: zedboards(1), Service: ServiceTemplate{Policy: "ghost"}}); err == nil {
		t.Error("unknown dispatch policy must fail")
	}
	if _, err := RouterByName("ghost"); err == nil {
		t.Error("unknown router must fail")
	}
	f := mustFleet(t, FleetConfig{Boards: zedboards(1), Seed: 1})
	if _, err := f.Serve(workload.Trace{}); err != nil {
		t.Fatalf("empty trace should serve cleanly: %v", err)
	}
	if _, err := f.Serve(workload.Trace{}); err == nil {
		t.Error("a fleet is single-use: second Serve must fail")
	}
}

// TestFleetPerClassAccounting: a classed trace served across a fleet
// merges per-class stats board-by-board, every offered request lands in
// exactly one terminal per-class counter, and a classless trace leaves the
// class map empty.
func TestFleetPerClassAccounting(t *testing.T) {
	f := mustFleet(t, FleetConfig{
		Boards:  zedboards(3),
		Seed:    42,
		FreqMHz: 200,
		Router:  LeastOutstanding(),
		Service: ServiceTemplate{Prewarm: testASPs},
	})
	spec := workload.ArrivalSpec{
		RatePerSec: 900,
		Deadline:   50 * sim.Millisecond,
		Classes: []workload.SLOClass{
			{Name: "latency", Deadline: 10 * sim.Millisecond, Weight: 1},
			{Name: "batch", Weight: 1},
		},
	}
	tr := mustTrace(t, spec, 7, 120, f.RPNames())
	st, err := f.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	agg := st.Aggregate
	names := agg.ClassNames()
	if !reflect.DeepEqual(names, []string{"batch", "latency"}) {
		t.Fatalf("class names = %v, want [batch latency]", names)
	}
	offered := 0
	for _, name := range names {
		c := agg.Classes[name]
		if c.Offered == 0 {
			t.Errorf("class %q saw no traffic in a 120-request trace", name)
		}
		if c.Completed+c.Shed+c.Failed != c.Offered {
			t.Errorf("class %q: completed %d + shed %d + failed %d ≠ offered %d",
				name, c.Completed, c.Shed, c.Failed, c.Offered)
		}
		offered += c.Offered
	}
	if offered != agg.Offered {
		t.Errorf("per-class offered sums to %d, fleet offered %d", offered, agg.Offered)
	}

	// A classless trace keeps the merged class map empty.
	plain := mustTrace(t, workload.ArrivalSpec{RatePerSec: 900}, 7, 32, f.RPNames())
	f2 := mustFleet(t, FleetConfig{
		Boards:  zedboards(3),
		Seed:    42,
		FreqMHz: 200,
		Router:  LeastOutstanding(),
		Service: ServiceTemplate{Prewarm: testASPs},
	})
	st2, err := f2.Serve(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Aggregate.Classes) != 0 {
		t.Errorf("classless run recorded classes: %v", st2.Aggregate.ClassNames())
	}
}
