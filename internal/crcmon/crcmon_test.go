package crcmon

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/clock"
	"repro/internal/fabric"
	"repro/internal/icap"
	"repro/internal/platform"
	"repro/internal/sim"
)

type rig struct {
	kernel *sim.Kernel
	domain *clock.Domain
	dev    *fabric.Device
	mem    *fabric.Memory
	port   *icap.Port
	mon    *Monitor
	rp     fabric.Region
	tempC  float64
}

func newRig(t *testing.T, freq sim.Hz) *rig {
	t.Helper()
	r := &rig{
		kernel: sim.NewKernel(),
		domain: clock.NewDomain("icap", freq),
		dev:    platform.Default().Device(),
		tempC:  40,
	}
	r.mem = fabric.NewMemory(r.dev)
	tm := platform.Default().TimingModel()
	r.port = icap.New(icap.Config{
		Kernel: r.kernel,
		Domain: r.domain,
		Memory: r.mem,
		Timing: tm,
		TempC:  func() float64 { return r.tempC },
		Seed:   2,
	})
	r.rp = platform.Default().RPs()[0]
	r.mon = New(Config{
		Kernel: r.kernel,
		Port:   r.port,
		Timing: tm,
		TempC:  func() float64 { return r.tempC },
		Region: r.rp,
	})
	return r
}

func (r *rig) loadRegion(t *testing.T, seed uint64) [][]uint32 {
	t.Helper()
	frames := make([][]uint32, r.dev.RegionFrames(r.rp))
	rng := sim.NewRNG(seed)
	addr := r.rp.RegionStart()
	for i := range frames {
		f := make([]uint32, fabric.FrameWords)
		for w := range f {
			f[w] = rng.Uint32()
		}
		frames[i] = f
		if err := r.mem.WriteFrame(addr, f); err != nil {
			t.Fatal(err)
		}
		if i+1 < len(frames) {
			var err error
			addr, err = r.dev.Next(addr)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return frames
}

func TestScanReportsValidForMatchingMemory(t *testing.T) {
	r := newRig(t, 200*sim.MHz)
	frames := r.loadRegion(t, 1)
	r.mon.SetGolden(frames)
	var results []Result
	r.mon.OnResult = func(res Result) {
		results = append(results, res)
		if len(results) >= 2 {
			r.mon.Stop()
		}
	}
	r.mon.Start()
	r.kernel.RunFor(20 * sim.Millisecond)
	if len(results) < 2 {
		t.Fatalf("got %d results, want ≥2 (continuous scanning)", len(results))
	}
	for _, res := range results {
		if !res.Valid {
			t.Errorf("scan %d invalid for matching memory", res.ScanNo)
		}
		if !res.IRQDelivered {
			t.Errorf("scan %d IRQ not delivered at 200 MHz", res.ScanNo)
		}
		if res.Region != "RP1" {
			t.Errorf("region = %q", res.Region)
		}
	}
}

func TestScanDetectsCorruption(t *testing.T) {
	r := newRig(t, 200*sim.MHz)
	frames := r.loadRegion(t, 2)
	r.mon.SetGolden(frames)
	// Corrupt one word directly in configuration memory.
	mid := frames[600]
	mid[50] ^= 1 << 9
	if err := r.mem.WriteFrame(mustAddr(t, r, 600), mid); err != nil {
		t.Fatal(err)
	}
	var got *Result
	r.mon.OnResult = func(res Result) {
		got = &res
		r.mon.Stop()
	}
	r.mon.Start()
	r.kernel.RunFor(20 * sim.Millisecond)
	if got == nil {
		t.Fatal("no scan completed")
	}
	if got.Valid {
		t.Error("corrupted memory reported valid")
	}
}

func mustAddr(t *testing.T, r *rig, offset int) fabric.FrameAddr {
	t.Helper()
	addr := r.rp.RegionStart()
	for i := 0; i < offset; i++ {
		var err error
		addr, err = r.dev.Next(addr)
		if err != nil {
			t.Fatal(err)
		}
	}
	return addr
}

func TestScanDurationMatchesClock(t *testing.T) {
	r := newRig(t, 100*sim.MHz)
	frames := r.loadRegion(t, 3)
	r.mon.SetGolden(frames)
	var at sim.Time
	r.mon.OnResult = func(res Result) {
		at = res.At
		r.mon.Stop()
	}
	start := r.kernel.Now()
	r.mon.Start()
	r.kernel.RunFor(20 * sim.Millisecond)
	// One scan = 1308 frames × 101 words at 100 MHz ≈ 1321 µs.
	want := sim.Cycles(int64(1308*fabric.FrameWords), 100*sim.MHz)
	elapsed := at.Sub(start)
	if elapsed < want || elapsed > want+sim.Millisecond {
		t.Errorf("scan took %v, want ≈%v", elapsed, want)
	}
}

func TestNoInterruptAt310MHz(t *testing.T) {
	// The paper's observation: at 310 MHz the CRC block never asserts its
	// interrupt, but the polled status still shows valid data at 40 °C.
	r := newRig(t, 310*sim.MHz)
	frames := r.loadRegion(t, 4)
	r.mon.SetGolden(frames)
	fired := false
	r.mon.OnResult = func(Result) { fired = true }
	r.mon.Start()
	r.kernel.RunFor(10 * sim.Millisecond)
	r.mon.Stop()
	if fired {
		t.Error("interrupt fired at 310 MHz despite control-path violation")
	}
	last, ok := r.mon.Last()
	if !ok {
		t.Fatal("no scan recorded")
	}
	if !last.Valid {
		t.Error("polled status should read valid at 310 MHz / 40 °C")
	}
	if last.IRQDelivered {
		t.Error("IRQDelivered should be false")
	}
}

func TestInvalidAtCorruptingFrequency(t *testing.T) {
	// At 320 MHz the data path (including read-back) violates timing: the
	// scan verdict must be invalid even if memory happens to match.
	r := newRig(t, 320*sim.MHz)
	frames := r.loadRegion(t, 5)
	r.mon.SetGolden(frames)
	r.mon.Start()
	r.kernel.RunFor(10 * sim.Millisecond)
	r.mon.Stop()
	last, ok := r.mon.Last()
	if !ok {
		t.Fatal("no scan recorded")
	}
	if last.Valid {
		t.Error("scan at a corrupting frequency must not report valid")
	}
}

func TestSuspendResumeAroundForegroundTransfer(t *testing.T) {
	r := newRig(t, 200*sim.MHz)
	frames := r.loadRegion(t, 6)
	r.mon.SetGolden(frames)
	r.mon.Start()
	r.kernel.RunFor(100 * sim.Microsecond) // scanning under way
	r.mon.Suspend()
	busyBefore := r.port.BusyUntil()
	r.kernel.RunFor(200 * sim.Microsecond)
	// While suspended, the monitor must not reserve more port time than the
	// chunk that was already in flight.
	if r.port.BusyUntil() > busyBefore {
		t.Error("monitor reserved port time while suspended")
	}
	r.mon.Resume()
	got := 0
	r.mon.OnResult = func(Result) { got++; r.mon.Stop() }
	r.kernel.RunFor(20 * sim.Millisecond)
	if got == 0 {
		t.Error("no scan completed after resume")
	}
}

func TestScanWithoutGoldenIsNoop(t *testing.T) {
	r := newRig(t, 200*sim.MHz)
	r.mon.Start()
	r.kernel.RunFor(10 * sim.Millisecond)
	if r.mon.ScansCompleted() != 0 {
		t.Error("scan ran without a golden reference")
	}
}

func TestGoldenAccessor(t *testing.T) {
	r := newRig(t, 200*sim.MHz)
	if _, ok := r.mon.Golden(); ok {
		t.Error("golden should be unset initially")
	}
	frames := r.loadRegion(t, 7)
	r.mon.SetGolden(frames)
	got, ok := r.mon.Golden()
	if !ok || got != bitstream.FrameCRC(frames) {
		t.Error("golden accessor wrong")
	}
}
