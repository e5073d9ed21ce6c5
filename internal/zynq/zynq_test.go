package zynq

import (
	"math"
	"testing"

	"repro/internal/dma"
	"repro/internal/sim"
	"repro/internal/timing"
)

func newTestPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := NewPlatform(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlatformWiring(t *testing.T) {
	p := newTestPlatform(t)
	if p.Device == nil || p.Memory == nil || p.DMA == nil || p.ICAP == nil {
		t.Fatal("missing components")
	}
	if len(p.RPs) != 4 {
		t.Errorf("RPs = %d, want 4", len(p.RPs))
	}
	if len(p.Monitors) != 4 {
		t.Errorf("Monitors = %d, want 4", len(p.Monitors))
	}
	if got := p.OverclockDomain.Freq(); got != 100*sim.MHz {
		t.Errorf("initial overclock = %v, want 100MHz", got)
	}
	if len(p.ClockManager.Names()) != 5 {
		t.Errorf("clock manager outputs = %v", p.ClockManager.Names())
	}
}

func TestConfigureStaticTakesTimeAndActivatesPL(t *testing.T) {
	p := newTestPlatform(t)
	if p.PLConfigured() {
		t.Fatal("PL must start unconfigured")
	}
	before := p.Kernel.Now()
	p.ConfigureStatic()
	elapsed := p.Kernel.Now().Sub(before)
	// ~3.27 MB at 145 MB/s ≈ 22.6 ms.
	if elapsed < 20*sim.Millisecond || elapsed > 25*sim.Millisecond {
		t.Errorf("static config took %v", elapsed)
	}
	if !p.PLConfigured() {
		t.Error("PL not configured")
	}
}

func TestPowerCouplesToPLState(t *testing.T) {
	p := newTestPlatform(t)
	idle := p.Power.Board()
	if math.Abs(idle-2.2) > 1e-9 {
		t.Errorf("idle board power = %v, want 2.2 (P0)", idle)
	}
	p.ConfigureStatic()
	active := p.Power.Board()
	if active <= idle+0.9 {
		t.Errorf("active board power = %v, want well above idle", active)
	}
}

func TestThermalCouplesToPower(t *testing.T) {
	p := newTestPlatform(t)
	p.ConfigureStatic()
	if _, err := p.SetOverclock(200 * sim.MHz); err != nil {
		t.Fatal(err)
	}
	p.Kernel.RunFor(sim.Second)
	// Active steady state: 25 + (1.53 + P_PDR(200,T))·5.3 ≈ 40 °C — the
	// paper's measurement baseline.
	got := p.Die.TempC()
	if got < 38 || got < 0 || got > 42 {
		t.Errorf("active die temp = %v, want ≈40", got)
	}
}

func TestSetOverclockBlocksUntilLock(t *testing.T) {
	p := newTestPlatform(t)
	before := p.Kernel.Now()
	actual, err := p.SetOverclock(280 * sim.MHz)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(actual.MHzValue()-280) > 1.4 {
		t.Errorf("achieved %v", actual)
	}
	if p.OverclockDomain.Freq() != actual {
		t.Error("domain not updated")
	}
	if p.Kernel.Now().Sub(before) < 100*sim.Microsecond {
		t.Error("lock time not paid")
	}
}

func TestSetOverclockRejectsSilly(t *testing.T) {
	p := newTestPlatform(t)
	if _, err := p.SetOverclock(9 * sim.GHz); err == nil {
		t.Error("expected error")
	}
}

func TestClassifyTracksFrequencyAndTemperature(t *testing.T) {
	p := newTestPlatform(t)
	if got := p.Classify(); got != timing.OK {
		t.Errorf("nominal classify = %v", got)
	}
	if _, err := p.SetOverclock(310 * sim.MHz); err != nil {
		t.Fatal(err)
	}
	if got := p.Classify(); got != timing.Hang {
		t.Errorf("310 MHz classify = %v, want hang", got)
	}
	p.Die.SetTempC(100)
	if got := p.Classify(); got != timing.Corrupt {
		t.Errorf("310 MHz @ 100°C classify = %v, want corrupt", got)
	}
}

func TestRPLookup(t *testing.T) {
	p := newTestPlatform(t)
	rp, err := p.RP("RP3")
	if err != nil || rp.Name != "RP3" {
		t.Errorf("RP3 lookup: %v %v", rp, err)
	}
	if _, err := p.RP("RP5"); err == nil {
		t.Error("unknown RP should fail")
	}
}

func TestPSTimer(t *testing.T) {
	p := newTestPlatform(t)
	p.PS.TimerStart()
	p.Kernel.RunFor(123 * sim.Microsecond)
	if got := p.PS.TimerStop(); got != 123*sim.Microsecond {
		t.Errorf("timer = %v", got)
	}
	if got := p.PS.TimerStop(); got != 0 {
		t.Errorf("stopped timer reads %v, want 0", got)
	}
}

func TestPSInterruptDispatchLatency(t *testing.T) {
	p := newTestPlatform(t)
	var at sim.Time
	p.PS.Handle(IRQDMADone, func() { at = p.Kernel.Now() })
	start := p.Kernel.Now()
	p.PS.Raise(IRQDMADone)
	p.Kernel.RunFor(10 * sim.Microsecond)
	want := p.PS.DispatchLatency + p.PS.HandlerOverhead
	if at.Sub(start) != want {
		t.Errorf("handler at +%v, want +%v", at.Sub(start), want)
	}
	// Unhandled interrupts are dropped silently.
	p.PS.Raise(IRQRPStatus)
	p.Kernel.RunFor(10 * sim.Microsecond)
}

func TestDMAIRQGateFollowsTiming(t *testing.T) {
	p := newTestPlatform(t)
	p.ConfigureStatic()
	if _, err := p.SetOverclock(310 * sim.MHz); err != nil {
		t.Fatal(err)
	}
	p.ICAP.Reset()
	done := false
	if err := p.DMA.Transfer(make([]uint32, 320), p.ICAP, func(dma.Result) { done = true }); err != nil {
		t.Fatal(err)
	}
	p.Kernel.RunFor(100 * sim.Microsecond)
	if done {
		t.Error("DMA IRQ delivered at 310 MHz (gate should suppress it)")
	}
	if !p.DMA.Completed() {
		t.Error("transfer should complete silently")
	}
}
