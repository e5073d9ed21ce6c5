package core

import (
	"math"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/zynq"
)

// paperTableI is the published Table I: frequency → (latency µs, MB/s).
var paperTableI = []struct {
	freqMHz    float64
	latencyUS  float64
	throughput float64
}{
	{100, 1325.60, 399.06},
	{140, 947.40, 558.12},
	{180, 737.50, 716.96},
	{200, 676.30, 781.84},
	{240, 671.90, 786.96},
	{280, 669.20, 790.14},
}

func newPlatform(t *testing.T) *zynq.Platform {
	t.Helper()
	p, err := zynq.NewPlatform(zynq.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p.ConfigureStatic()
	return p
}

func standardBitstream(t *testing.T, p *zynq.Platform, seed uint64) *bitstream.Bitstream {
	t.Helper()
	rp := p.RPs[0]
	rng := sim.NewRNG(seed)
	frames := make([][]uint32, p.Device.RegionFrames(rp))
	for i := range frames {
		f := make([]uint32, fabric.FrameWords)
		if !rng.Bool(0.3) {
			used := 40 + rng.Intn(fabric.FrameWords-40)
			for w := 0; w < used; w++ {
				f[w] = rng.Uint32()
			}
		}
		frames[i] = f
	}
	bs, err := bitstream.Build(p.Device, rp, "asp", frames)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func TestTableIReproduction(t *testing.T) {
	// The headline integration test: every operational row of Table I must
	// emerge from the simulation within 0.5%.
	p := newPlatform(t)
	c := New(p)
	bs := standardBitstream(t, p, 1)
	if bs.Size() != 528760 {
		t.Fatalf("bitstream size %d, want 528760", bs.Size())
	}
	for _, row := range paperTableI {
		if _, err := c.SetFrequencyMHz(row.freqMHz); err != nil {
			t.Fatal(err)
		}
		res, err := c.Load("RP1", bs)
		if err != nil {
			t.Fatal(err)
		}
		if !res.IRQReceived {
			t.Errorf("%v MHz: no interrupt, want operational", row.freqMHz)
			continue
		}
		if !res.CRCValid {
			t.Errorf("%v MHz: CRC invalid, want valid", row.freqMHz)
		}
		if !res.DataIntact {
			t.Errorf("%v MHz: memory corrupted", row.freqMHz)
		}
		latErr := math.Abs(res.LatencyUS-row.latencyUS) / row.latencyUS
		if latErr > 0.005 {
			t.Errorf("%v MHz: latency %.2f µs, paper %.2f µs (%.2f%% off)",
				row.freqMHz, res.LatencyUS, row.latencyUS, latErr*100)
		}
		tputErr := math.Abs(res.ThroughputMBs-row.throughput) / row.throughput
		if tputErr > 0.005 {
			t.Errorf("%v MHz: throughput %.2f MB/s, paper %.2f (%.2f%% off)",
				row.freqMHz, res.ThroughputMBs, row.throughput, tputErr*100)
		}
	}
}

func TestTableIFailureRows(t *testing.T) {
	// 310 MHz: no interrupt, CRC valid. 320/360 MHz: no interrupt, CRC not
	// valid.
	p := newPlatform(t)
	c := New(p)
	bs := standardBitstream(t, p, 2)
	tests := []struct {
		freqMHz   float64
		wantValid bool
	}{
		{310, true},
		{320, false},
		{360, false},
	}
	for _, tt := range tests {
		if _, err := c.SetFrequencyMHz(tt.freqMHz); err != nil {
			t.Fatal(err)
		}
		res, err := c.Load("RP1", bs)
		if err != nil {
			t.Fatal(err)
		}
		if res.IRQReceived {
			t.Errorf("%v MHz: interrupt received, want hang", tt.freqMHz)
		}
		if res.CRCValid != tt.wantValid {
			t.Errorf("%v MHz: CRC valid = %v, want %v", tt.freqMHz, res.CRCValid, tt.wantValid)
		}
		if res.CRCByIRQ {
			t.Errorf("%v MHz: CRC verdict must come from polling, not IRQ", tt.freqMHz)
		}
		if res.DataIntact != tt.wantValid {
			t.Errorf("%v MHz: oracle DataIntact = %v, want %v", tt.freqMHz, res.DataIntact, tt.wantValid)
		}
	}
}

func TestLoadValidation(t *testing.T) {
	p, err := zynq.NewPlatform(zynq.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	bs := standardBitstream(t, p, 3)
	if _, err := c.Load("RP1", bs); err == nil {
		t.Error("load before static configuration must fail")
	}
	p.ConfigureStatic()
	if _, err := c.Load("RP9", bs); err == nil {
		t.Error("unknown RP must fail")
	}
}

func TestSetFrequencyCostsLockTime(t *testing.T) {
	p := newPlatform(t)
	c := New(p)
	before := p.Kernel.Now()
	got, err := c.SetFrequencyMHz(200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-200) > 1 {
		t.Errorf("achieved %v MHz", got)
	}
	if p.Kernel.Now().Sub(before) < 100*sim.Microsecond {
		t.Error("frequency change should cost the MMCM lock time")
	}
}

func TestCalibratorSweepShape(t *testing.T) {
	// Fig. 5's shape: linear region then plateau; knee at 200 MHz.
	p := newPlatform(t)
	c := New(p)
	cal := &Calibrator{C: c, Bitstream: standardBitstream(t, p, 4)}
	points, err := cal.Sweep([]float64{100, 140, 180, 200, 240, 280})
	if err != nil {
		t.Fatal(err)
	}
	// Linear region: throughput ≈ 4f within 1%.
	for _, pt := range points[:3] {
		want := 4 * pt.RequestedMHz
		if math.Abs(pt.Result.ThroughputMBs-want)/want > 0.01 {
			t.Errorf("%v MHz: %v MB/s not ≈4f", pt.RequestedMHz, pt.Result.ThroughputMBs)
		}
	}
	// Plateau: 240→280 gains less than 1%.
	gain := points[5].Result.ThroughputMBs / points[4].Result.ThroughputMBs
	if gain > 1.01 {
		t.Errorf("plateau gain 240→280 = %v, want <1%%", gain)
	}
	// Monotone non-decreasing throughout.
	for i := 1; i < len(points); i++ {
		if points[i].Result.ThroughputMBs < points[i-1].Result.ThroughputMBs {
			t.Errorf("throughput decreased at %v MHz", points[i].RequestedMHz)
		}
	}
}

func TestRobustGuardRecoversFromHang(t *testing.T) {
	p := newPlatform(t)
	c := New(p)
	bs := standardBitstream(t, p, 5)
	if _, err := c.SetFrequencyMHz(310); err != nil {
		t.Fatal(err)
	}
	g := &RobustGuard{C: c}
	rec, err := g.Load("RP1", bs)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Recovered {
		t.Fatal("guard failed to recover")
	}
	if len(rec.Attempts) != 2 {
		t.Errorf("attempts = %d, want 2", len(rec.Attempts))
	}
	if rec.FallbackMHz != 100 {
		t.Errorf("fallback = %v MHz, want 100", rec.FallbackMHz)
	}
	final := rec.Attempts[len(rec.Attempts)-1]
	if !final.IRQReceived || !final.CRCValid || !final.DataIntact {
		t.Errorf("final attempt not clean: %+v", final)
	}
}

func TestRobustGuardPassThroughWhenHealthy(t *testing.T) {
	p := newPlatform(t)
	c := New(p)
	bs := standardBitstream(t, p, 6)
	if _, err := c.SetFrequencyMHz(200); err != nil {
		t.Fatal(err)
	}
	g := &RobustGuard{C: c}
	rec, err := g.Load("RP1", bs)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Recovered || len(rec.Attempts) != 1 {
		t.Errorf("healthy load should succeed first try: %+v", rec)
	}
}

func TestExpectedLatencyMatchesPaper(t *testing.T) {
	for _, row := range paperTableI {
		got := ExpectedLatencyUS(528760, row.freqMHz)
		if math.Abs(got-row.latencyUS)/row.latencyUS > 0.01 {
			t.Errorf("ExpectedLatencyUS(%v MHz) = %.1f, paper %.1f", row.freqMHz, got, row.latencyUS)
		}
	}
}

func TestOutcomeOracleConsistency(t *testing.T) {
	p := newPlatform(t)
	c := New(p)
	bs := standardBitstream(t, p, 7)
	for _, f := range []float64{200, 310, 330} {
		if _, err := c.SetFrequencyMHz(f); err != nil {
			t.Fatal(err)
		}
		res, err := c.Load("RP1", bs)
		if err != nil {
			t.Fatal(err)
		}
		switch res.Outcome {
		case timing.OK:
			if !res.IRQReceived || !res.DataIntact {
				t.Errorf("%v MHz: OK outcome but IRQ=%v intact=%v", f, res.IRQReceived, res.DataIntact)
			}
		case timing.Hang:
			if res.IRQReceived || !res.DataIntact {
				t.Errorf("%v MHz: Hang outcome but IRQ=%v intact=%v", f, res.IRQReceived, res.DataIntact)
			}
		case timing.Corrupt:
			if res.IRQReceived || res.DataIntact {
				t.Errorf("%v MHz: Corrupt outcome but IRQ=%v intact=%v", f, res.IRQReceived, res.DataIntact)
			}
		}
	}
}
