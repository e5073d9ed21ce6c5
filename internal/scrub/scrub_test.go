package scrub

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/fabric"
	"repro/internal/icap"
	"repro/internal/platform"
	"repro/internal/sim"
)

type rig struct {
	kernel *sim.Kernel
	dev    *fabric.Device
	mem    *fabric.Memory
	port   *icap.Port
	rp     fabric.Region
	golden [][]uint32
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{kernel: sim.NewKernel(), dev: platform.Default().Device()}
	r.mem = fabric.NewMemory(r.dev)
	r.port = icap.New(icap.Config{
		Kernel: r.kernel,
		Domain: clock.NewDomain("icap", 200*sim.MHz),
		Memory: r.mem,
		Timing: platform.Default().TimingModel(),
		Seed:   3,
	})
	r.rp = platform.Default().RPs()[0]

	// Configure the region directly with a golden image.
	rng := sim.NewRNG(77)
	n := r.dev.RegionFrames(r.rp)
	r.golden = make([][]uint32, n)
	addr := r.rp.RegionStart()
	for i := 0; i < n; i++ {
		f := make([]uint32, fabric.FrameWords)
		for w := range f {
			f[w] = rng.Uint32()
		}
		r.golden[i] = f
		if err := r.mem.WriteFrame(addr, f); err != nil {
			t.Fatal(err)
		}
		if i+1 < n {
			var err error
			addr, err = r.dev.Next(addr)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return r
}

func (r *rig) scrub(t *testing.T) Report {
	t.Helper()
	s := New(r.kernel, r.port)
	var rep *Report
	err := s.Scrub(r.rp, r.golden, func(got Report, serr error) {
		if serr != nil {
			t.Fatal(serr)
		}
		rep = &got
	})
	if err != nil {
		t.Fatal(err)
	}
	r.kernel.Run()
	if rep == nil {
		t.Fatal("scrub never completed")
	}
	return *rep
}

func TestScrubCleanRegionRepairsNothing(t *testing.T) {
	r := newRig(t)
	rep := r.scrub(t)
	if rep.FramesRepaired != 0 {
		t.Errorf("repaired %d frames of a clean region", rep.FramesRepaired)
	}
	if !rep.Clean {
		t.Error("clean region reported dirty")
	}
	if rep.FramesScanned != 1308 {
		t.Errorf("scanned %d", rep.FramesScanned)
	}
}

func TestScrubRepairsInjectedSEUs(t *testing.T) {
	r := newRig(t)
	inj := NewInjector(r.mem, 9)
	hit, err := inj.UpsetRegion(r.rp, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hit) != 5 || inj.Injected() != 5 {
		t.Fatalf("injected %d/%d", len(hit), inj.Injected())
	}
	eq, _ := r.mem.RegionEqual(r.rp, r.golden)
	if eq {
		t.Fatal("injection had no effect")
	}
	rep := r.scrub(t)
	if rep.FramesRepaired != 5 {
		t.Errorf("repaired %d frames, want 5", rep.FramesRepaired)
	}
	if !rep.Clean {
		t.Error("region not clean after scrub")
	}
	eq, _ = r.mem.RegionEqual(r.rp, r.golden)
	if !eq {
		t.Error("memory differs from golden after scrub")
	}
}

func TestScrubDurationScalesWithDamage(t *testing.T) {
	// A scrub pass costs ~2 read sweeps + repairs; repairs are a tiny
	// surcharge, so 1 vs 50 damaged frames should differ by ≈49 frame
	// write times.
	run := func(damage int) sim.Duration {
		r := newRig(t)
		if damage > 0 {
			if _, err := NewInjector(r.mem, 5).UpsetRegion(r.rp, damage); err != nil {
				t.Fatal(err)
			}
		}
		return r.scrub(t).Duration
	}
	d0 := run(0)
	d50 := run(50)
	frameTime := sim.Cycles(fabric.FrameWords, 200*sim.MHz)
	extra := d50 - d0
	want := sim.Duration(50) * frameTime
	if extra < want*9/10 || extra > want*11/10 {
		t.Errorf("extra scrub time %v, want ≈%v (50 frame writes)", extra, want)
	}
}

func TestScrubFarCheaperThanReload(t *testing.T) {
	// The point of scrubbing: repairing a handful of SEUs costs ~2 sweeps,
	// versus a reload that moves all frames *plus* the DMA path overheads.
	// At the same clock, a scrub of a 3-SEU region must cost well under 3x
	// a full region's frame time.
	r := newRig(t)
	if _, err := NewInjector(r.mem, 5).UpsetRegion(r.rp, 3); err != nil {
		t.Fatal(err)
	}
	rep := r.scrub(t)
	fullFrames := FullReloadFrames(r.dev, r.rp)
	budget := sim.Duration(3) * sim.Duration(fullFrames) * sim.Cycles(fabric.FrameWords, 200*sim.MHz) / 1
	if rep.Duration > budget {
		t.Errorf("scrub took %v, budget %v", rep.Duration, budget)
	}
	if rep.FramesRepaired != 3 {
		t.Errorf("repaired %d", rep.FramesRepaired)
	}
}

func TestScrubFramesTargetedRepair(t *testing.T) {
	r := newRig(t)
	inj := NewInjector(r.mem, 9)
	hit, err := inj.UpsetRegion(r.rp, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := New(r.kernel, r.port)
	var rep *Report
	if err := s.ScrubFrames(r.rp, r.golden, hit, func(got Report, serr error) {
		if serr != nil {
			t.Fatal(serr)
		}
		rep = &got
	}); err != nil {
		t.Fatal(err)
	}
	r.kernel.Run()
	if rep == nil {
		t.Fatal("targeted scrub never completed")
	}
	if rep.FramesScanned != 4 || rep.FramesRepaired != 4 || !rep.Clean {
		t.Errorf("report = %+v, want 4 scanned, 4 repaired, clean", *rep)
	}
	if eq, _ := r.mem.RegionEqual(r.rp, r.golden); !eq {
		t.Error("memory differs from golden after targeted scrub")
	}
	// Frame-addressed repair touches a handful of frames: it must cost a
	// small fraction of a full-region sweep.
	full := r.scrub(t) // region already clean: pure sweep cost
	if 10*rep.Duration >= full.Duration {
		t.Errorf("targeted scrub %v not ≪ full sweep %v", rep.Duration, full.Duration)
	}
}

func TestScrubFramesValidatesSuspects(t *testing.T) {
	r := newRig(t)
	s := New(r.kernel, r.port)
	cb := func(Report, error) {}
	if err := s.ScrubFrames(r.rp, r.golden, nil, cb); err == nil {
		t.Error("empty suspect list must fail")
	}
	if err := s.ScrubFrames(r.rp, r.golden, []int{1 << 30}, cb); err == nil {
		t.Error("out-of-region suspect must fail")
	}
	if err := s.ScrubFrames(r.rp, r.golden[:10], []int{0}, cb); err == nil {
		t.Error("short golden must fail")
	}
}

func TestScrubValidatesGoldenLength(t *testing.T) {
	r := newRig(t)
	s := New(r.kernel, r.port)
	if err := s.Scrub(r.rp, r.golden[:10], func(Report, error) {}); err == nil {
		t.Error("short golden must fail")
	}
}

func TestInjectorBounds(t *testing.T) {
	r := newRig(t)
	inj := NewInjector(r.mem, 1)
	if _, err := inj.UpsetRegion(r.rp, 99999); err == nil {
		t.Error("over-injection must fail")
	}
}

func TestInjectorDistinctFrames(t *testing.T) {
	r := newRig(t)
	inj := NewInjector(r.mem, 2)
	hit, err := inj.UpsetRegion(r.rp, 100)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, lin := range hit {
		if seen[lin] {
			t.Fatal("duplicate frame upset")
		}
		seen[lin] = true
	}
}
