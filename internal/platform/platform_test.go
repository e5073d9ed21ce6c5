package platform

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestRegistryContents(t *testing.T) {
	want := []string{"zedboard", "zedboard-slow-thermal", "zedboard-hot", "zybo-z7-10", "zc706"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names[%d] = %q, want %q", i, got[i], want[i])
		}
		p, ok := Lookup(want[i])
		if !ok || p.Name != want[i] {
			t.Errorf("Lookup(%q) = %v, %v", want[i], p, ok)
		}
	}
	if _, ok := Lookup("zedboard-quantum"); ok {
		t.Error("unknown profile should not resolve")
	}
	if p, ok := Lookup(""); !ok || p.Name != "zedboard" {
		t.Errorf("empty lookup = %v, want default zedboard", p)
	}
	if Default().Name != "zedboard" {
		t.Errorf("Default = %q", Default().Name)
	}
}

func TestBoardsSkipVariants(t *testing.T) {
	boards := Boards()
	if len(boards) != 3 {
		t.Fatalf("Boards = %d profiles, want 3 distinct silicon", len(boards))
	}
	wantParts := map[string]string{"zedboard": "xc7z020", "zybo-z7-10": "xc7z010", "zc706": "xc7z045"}
	for _, b := range boards {
		if b.VariantOf != "" {
			t.Errorf("%s is a variant, must not be a board", b.Name)
		}
		if wantParts[b.Name] != b.Part {
			t.Errorf("%s part = %q, want %q", b.Name, b.Part, wantParts[b.Name])
		}
	}
}

// TestZedBoardReproducesSeedCalibration pins the default profile to the
// calibrated constants DESIGN.md §2 documents — the values every layer read
// from package constants before the platform extraction. If any of these
// drift, the default platform is no longer bit-identical to the seed.
func TestZedBoardReproducesSeedCalibration(t *testing.T) {
	p := Default()
	if p.DRAM.PortBytesPerSec != 824e6 {
		t.Errorf("port rate = %v", p.DRAM.PortBytesPerSec)
	}
	if p.DRAM.RefreshInterval != sim.FromMicroseconds(7.8) || p.DRAM.RefreshStall != 97*sim.Nanosecond {
		t.Errorf("refresh = %v/%v", p.DRAM.RefreshInterval, p.DRAM.RefreshStall)
	}
	if p.AXI.CDCSyncCycles != 1.1 || p.AXI.LiteWriteLatency != 120*sim.Nanosecond {
		t.Errorf("AXI = %+v", p.AXI)
	}
	if p.Clock.LockTime != 100*sim.Microsecond || p.Clock.RefClock != 100*sim.MHz {
		t.Errorf("clock = %+v", p.Clock)
	}
	if p.Timing.Control.Delay40 != sim.FromNanoseconds(1e3/300.0) || p.Timing.Data.Delay40 != sim.FromNanoseconds(1e3/315.0) {
		t.Errorf("timing paths = %+v", p.Timing)
	}
	if math.Abs(p.Power.DynPerMHz-(1.44-1.14)/(280-100)) > 1e-15 || p.Power.BoardBaseline != 2.2 {
		t.Errorf("power = %+v", p.Power)
	}
	if p.Thermal.RThermalCPerW != 5.3 || p.Thermal.Tau != 2*sim.Second {
		t.Errorf("thermal = %+v", p.Thermal)
	}
	if p.PS.PCAPBytesPerSec != 145e6 || p.PS.DispatchLatency != 900*sim.Nanosecond {
		t.Errorf("PS = %+v", p.PS)
	}
	if p.IO.SDBytesPerSec != 20e6 || len(p.IO.SwitchTableMHz) != 9 || p.IO.SwitchTableMHz[3] != 200 {
		t.Errorf("IO = %+v", p.IO)
	}
	if p.BootAmbientC != 25 || p.SlowThermal {
		t.Errorf("boot env = %v/%v", p.BootAmbientC, p.SlowThermal)
	}
	// The analytic model must keep producing E8's documented 0.15727 µs
	// burst slot from the DRAM parameters.
	if got := p.AnalyticBurstUS(); got != 0.15727 {
		t.Errorf("AnalyticBurstUS = %v, want 0.15727", got)
	}
	if p.AnalyticFixedUS != 3.3 {
		t.Errorf("AnalyticFixedUS = %v", p.AnalyticFixedUS)
	}
}

func TestZedBoardGeometry(t *testing.T) {
	p := Default()
	d := p.Device()
	if d.Name != "xc7z020" || d.IDCode != 0x03727093 {
		t.Errorf("device = %s/%#x", d.Name, d.IDCode)
	}
	if d.TotalFrames() != 8100 {
		t.Errorf("TotalFrames = %d, want 8100", d.TotalFrames())
	}
	rps := p.RPs()
	if len(rps) != 4 {
		t.Fatalf("RPs = %d, want 4", len(rps))
	}
	for _, rp := range rps {
		if got := d.RegionFrames(rp); got != 1308 {
			t.Errorf("%s frames = %d, want 1308", rp.Name, got)
		}
	}
	names := p.RPNames()
	if len(names) != len(rps) {
		t.Fatalf("RPNames = %v vs %d regions", names, len(rps))
	}
	for i, rp := range rps {
		if names[i] != rp.Name {
			t.Errorf("RPNames[%d] = %q, want %q", i, names[i], rp.Name)
		}
	}
}

func TestNewBoardsGeometry(t *testing.T) {
	zybo, _ := Lookup("zybo-z7-10")
	d := zybo.Device()
	rps := zybo.RPs()
	if len(rps) != 3 {
		t.Fatalf("zybo RPs = %d, want 3", len(rps))
	}
	for _, rp := range rps {
		if got := d.RegionFrames(rp); got != 872 {
			t.Errorf("zybo %s frames = %d, want 872", rp.Name, got)
		}
	}
	zc, _ := Lookup("zc706")
	d = zc.Device()
	rps = zc.RPs()
	if len(rps) != 7 {
		t.Fatalf("zc706 RPs = %d, want 7", len(rps))
	}
	for _, rp := range rps {
		if got := d.RegionFrames(rp); got != 1308 {
			t.Errorf("zc706 %s frames = %d, want 1308 (same RP cut as zedboard)", rp.Name, got)
		}
	}
	if got := len(zc.RPNames()); got != 7 {
		t.Errorf("zc706 RPNames = %d", got)
	}
}

// TestKneeMovesWithMemoryModel is the cross-platform story in one assertion:
// the predicted stream/memory knee must track each platform's HP-port model.
func TestKneeMovesWithMemoryModel(t *testing.T) {
	zed := Default()
	zybo, _ := Lookup("zybo-z7-10")
	zc, _ := Lookup("zc706")
	kZybo, kZed, kZC := zybo.StreamKneeMHz(), zed.StreamKneeMHz(), zc.StreamKneeMHz()
	if !(kZybo < kZed && kZed < kZC) {
		t.Errorf("knee order: zybo %.1f, zedboard %.1f, zc706 %.1f — want strictly increasing", kZybo, kZed, kZC)
	}
	if math.Abs(kZed-196.5) > 1 {
		t.Errorf("zedboard knee = %.1f MHz, want ≈196.5 (the paper's ≈200 MHz)", kZed)
	}
	// The plateau prediction at 280 MHz must land near Table I's ≈790 MB/s
	// (the analytic model ignores FIFO back-pressure, so it sits ~0.5% high).
	if got := zed.MemoryPlateauMBs(280); math.Abs(got-790) > 6 {
		t.Errorf("zedboard plateau @280 = %.1f MB/s, want ≈790", got)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := zedboard()
	bad := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Fabric.Rows = 0 },
		func(p *Profile) { p.Fabric.RPTiles = p.Fabric.Tiles + 1 },
		func(p *Profile) { p.DRAM.PortBytesPerSec = 0 },
		func(p *Profile) { p.AXI.CDCSyncCycles = 0 },
		func(p *Profile) { p.Clock.RefClock = 0 },
		func(p *Profile) { p.IO.SwitchTableMHz = nil },
		func(p *Profile) { p.Thermal.Tau = 0 },
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("zedboard invalid: %v", err)
	}
	for i, mutate := range bad {
		p := zedboard()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate the profile", i)
		}
	}
}

func TestVariantPresetsDeriveFromZedBoard(t *testing.T) {
	slow, _ := Lookup("zedboard-slow-thermal")
	if !slow.SlowThermal || slow.VariantOf != "zedboard" {
		t.Errorf("slow-thermal preset = %+v", slow)
	}
	if slow.Thermal.Tau != 2*sim.Second {
		t.Errorf("slow-thermal tau = %v", slow.Thermal.Tau)
	}
	hot, _ := Lookup("zedboard-hot")
	if hot.BootAmbientC != 45 || hot.VariantOf != "zedboard" {
		t.Errorf("hot preset = %+v", hot)
	}
	// Presets must not perturb the silicon calibration.
	zed := Default()
	for _, v := range []*Profile{slow, hot} {
		if v.DRAM != zed.DRAM || v.Fabric != zed.Fabric || v.Timing != zed.Timing {
			t.Errorf("%s diverges from zedboard silicon", v.Name)
		}
	}
}
