package hll

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/zynq"
)

func newFramework(t *testing.T) (*Framework, *core.Controller) {
	t.Helper()
	p, err := zynq.NewPlatform(zynq.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p.ConfigureStatic()
	c := core.New(p)
	if _, err := c.SetFrequencyMHz(200); err != nil {
		t.Fatal(err)
	}
	return New(c), c
}

func TestServeLoadsAndRuns(t *testing.T) {
	f, _ := newFramework(t)
	tr := workload.Trace{
		{At: 0, RP: "RP1", ASP: "fir128"},
		{At: 0, RP: "RP1", ASP: "fir128"}, // resident: no reconfig
		{At: 0, RP: "RP1", ASP: "sha3"},   // swap
	}
	stats, err := f.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 3 {
		t.Errorf("requests = %d", stats.Requests)
	}
	if stats.Reconfigs != 2 {
		t.Errorf("reconfigs = %d, want 2", stats.Reconfigs)
	}
	if stats.Hits != 1 {
		t.Errorf("hits = %d, want 1", stats.Hits)
	}
	if stats.Failures != 0 {
		t.Errorf("failures = %d", stats.Failures)
	}
	res, err := f.Resident("RP1")
	if err != nil || res != "sha3" {
		t.Errorf("resident = %q %v", res, err)
	}
}

func TestPerRPClocksFollowASPs(t *testing.T) {
	f, c := newFramework(t)
	tr := workload.Trace{
		{At: 0, RP: "RP1", ASP: "aes-gcm"}, // 200 MHz ASP clock
		{At: 0, RP: "RP2", ASP: "matmul8"}, // 100 MHz ASP clock
	}
	if _, err := f.Run(tr); err != nil {
		t.Fatal(err)
	}
	cm := c.Platform().ClockManager
	got1 := f.eng.rps["RP1"].clock
	got2 := f.eng.rps["RP2"].clock
	if cm.Domain(got1).Freq() != 200*sim.MHz {
		t.Errorf("RP1 clock = %v", cm.Domain(got1).Freq())
	}
	if cm.Domain(got2).Freq() != 100*sim.MHz {
		t.Errorf("RP2 clock = %v", cm.Domain(got2).Freq())
	}
}

func TestOverheadFractionDropsWithOverclock(t *testing.T) {
	// The paper's motivation quantified: the same swap-heavy trace costs a
	// smaller fraction of wall time in reconfiguration at 200 MHz than at
	// the nominal 100 MHz.
	run := func(freq float64) float64 {
		p, err := zynq.NewPlatform(zynq.Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		p.ConfigureStatic()
		c := core.New(p)
		if _, err := c.SetFrequencyMHz(freq); err != nil {
			t.Fatal(err)
		}
		f := New(c)
		tr := workload.RoundRobinTrace(12, 100*sim.Microsecond,
			[]string{"RP1", "RP2"}, []string{"fir128", "sha3", "aes-gcm"})
		stats, err := f.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Reconfigs == 0 {
			t.Fatal("trace produced no reconfigs")
		}
		return stats.OverheadFraction()
	}
	f100 := run(100)
	f200 := run(200)
	if f200 >= f100 {
		t.Errorf("overclocking should cut overhead: %v @200 vs %v @100", f200, f100)
	}
	if f100 < 0.5 {
		t.Errorf("swap-heavy trace at 100 MHz should be reconfig-dominated (got %v)", f100)
	}
}

func TestRunHonoursRequestTimes(t *testing.T) {
	f, c := newFramework(t)
	gap := 10 * sim.Millisecond
	tr := workload.Trace{
		{At: gap, RP: "RP1", ASP: "fir128"},
		{At: 2 * gap, RP: "RP1", ASP: "fir128"},
	}
	start := c.Platform().Kernel.Now()
	stats, err := f.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := c.Platform().Kernel.Now().Sub(start)
	if elapsed < 2*gap {
		t.Errorf("makespan %v shorter than trace span", elapsed)
	}
	if stats.Makespan != elapsed {
		t.Errorf("Makespan = %v, want %v", stats.Makespan, elapsed)
	}
}

func TestUnknownNamesFail(t *testing.T) {
	f, _ := newFramework(t)
	if _, err := f.Run(workload.Trace{{RP: "RP9", ASP: "fir128"}}); err == nil {
		t.Error("unknown RP must fail")
	}
	if _, err := f.Run(workload.Trace{{RP: "RP1", ASP: "ghost"}}); err == nil {
		t.Error("unknown ASP must fail")
	}
	if _, err := f.Resident("RP9"); err == nil {
		t.Error("unknown RP resident lookup must fail")
	}
}

func TestBitstreamCacheReused(t *testing.T) {
	f, _ := newFramework(t)
	tr := workload.Trace{
		{At: 0, RP: "RP1", ASP: "fir128"},
		{At: 0, RP: "RP1", ASP: "sha3"},
		{At: 0, RP: "RP1", ASP: "fir128"},
		{At: 0, RP: "RP1", ASP: "sha3"},
	}
	if _, err := f.Run(tr); err != nil {
		t.Fatal(err)
	}
	cs := f.eng.cache.Stats()
	if cs.Misses != 2 {
		t.Errorf("cache misses = %d, want 2 (one build per distinct image)", cs.Misses)
	}
	if cs.Hits != 2 {
		t.Errorf("cache hits = %d, want 2 (repeat loads reuse the image)", cs.Hits)
	}
}

func TestRunReturnsPartialStatsOnMidTraceFailure(t *testing.T) {
	f, _ := newFramework(t)
	tr := workload.Trace{
		{At: 0, RP: "RP1", ASP: "fir128"},
		{At: 100 * sim.Microsecond, RP: "RP2", ASP: "ghost"}, // fails mid-trace
		{At: 200 * sim.Microsecond, RP: "RP1", ASP: "sha3"},
	}
	stats, err := f.Run(tr)
	if err == nil {
		t.Fatal("mid-trace failure must surface an error")
	}
	if !strings.Contains(err.Error(), "request 1") || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("error should locate the failing request: %v", err)
	}
	// Progress before the failure survives: the first request was served,
	// and the makespan covers the partial run instead of being discarded.
	if stats.Requests != 1 || stats.Reconfigs != 1 {
		t.Errorf("partial stats lost: requests=%d reconfigs=%d, want 1/1", stats.Requests, stats.Reconfigs)
	}
	if stats.Makespan <= 0 {
		t.Errorf("partial Makespan = %v, want > 0", stats.Makespan)
	}
	if stats.ReconfigTime <= 0 {
		t.Errorf("partial ReconfigTime = %v, want > 0", stats.ReconfigTime)
	}
}

func TestRunRecordsWaitAndServiceSamples(t *testing.T) {
	f, _ := newFramework(t)
	// Two same-RP requests at time 0: the second queues behind the first's
	// reconfiguration + compute, so its wait must be positive.
	tr := workload.Trace{
		{At: 0, RP: "RP1", ASP: "fir128"},
		{At: 0, RP: "RP1", ASP: "sha3"},
	}
	stats, err := f.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.QueueWaitUS.N() != 2 || stats.ServiceUS.N() != 2 {
		t.Fatalf("sample counts = %d/%d, want 2/2", stats.QueueWaitUS.N(), stats.ServiceUS.N())
	}
	if stats.QueueWaitUS.Max() <= 0 {
		t.Error("second request should have waited behind the first")
	}
	if stats.ServiceUS.Min() <= 0 {
		t.Error("service time must be positive")
	}
	if p99 := stats.ServiceUS.Percentile(99); p99 < stats.ServiceUS.Percentile(50) {
		t.Errorf("p99 %v below p50 %v", p99, stats.ServiceUS.Percentile(50))
	}
}
