package srampdr

import (
	"math"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/dram"
	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

type rig struct {
	kernel *sim.Kernel
	dev    *fabric.Device
	mem    *fabric.Memory
	sys    *System
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{kernel: sim.NewKernel(), dev: platform.Default().Device()}
	r.mem = fabric.NewMemory(r.dev)
	sys, err := New(Config{
		Kernel: r.kernel,
		Device: r.dev,
		Memory: r.mem,
		DDR:    dram.NewController(r.kernel, platform.Default().DRAM),
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.sys = sys
	return r
}

func (r *rig) aspBitstream(t *testing.T, name string, rpIdx int) (*bitstream.Bitstream, fabric.Region) {
	t.Helper()
	asp, err := workload.LibraryASP(name)
	if err != nil {
		t.Fatal(err)
	}
	rp := platform.Default().RPs()[rpIdx]
	bs, err := asp.Bitstream(r.dev, rp)
	if err != nil {
		t.Fatal(err)
	}
	return bs, rp
}

// loadRaw registers, preloads and reconfigures; returns the result.
func (r *rig) loadVia(t *testing.T, bs *bitstream.Bitstream, compressed bool) ReconfigResult {
	t.Helper()
	if err := r.sys.Register(bs, compressed); err != nil {
		t.Fatal(err)
	}
	preloaded := false
	if err := r.sys.Preload(bs.Header.Name, func(Preloaded) { preloaded = true }); err != nil {
		t.Fatal(err)
	}
	r.kernel.Run()
	if !preloaded {
		t.Fatal("preload never completed")
	}
	var res *ReconfigResult
	if err := r.sys.Reconfigure(func(rr ReconfigResult) { res = &rr }); err != nil {
		t.Fatal(err)
	}
	r.kernel.Run()
	if res == nil {
		t.Fatal("reconfigure never completed")
	}
	return *res
}

func TestRawReconfigHitsTheoreticalThroughput(t *testing.T) {
	// Sec. VI's headline: ≈1237.5 MB/s from SRAM, nearly double the
	// measured 790 MB/s of the DMA path.
	r := newRig(t)
	bs, rp := r.aspBitstream(t, "fir128", 0)
	res := r.loadVia(t, bs, false)
	if !res.CRCValid {
		t.Fatal("reconfiguration did not verify")
	}
	want := TheoreticalThroughputMBs()
	if math.Abs(res.ThroughputMBs-want)/want > 0.02 {
		t.Errorf("throughput = %.1f MB/s, want ≈%.1f", res.ThroughputMBs, want)
	}
	// 528,760 bytes at 1237.5 MB/s ≈ 427 µs — well under the paper's best
	// 669 µs on the DMA path.
	if res.LatencyUS > 440 {
		t.Errorf("latency = %.1f µs, want ≈427", res.LatencyUS)
	}
	eq, err := r.mem.RegionEqual(rp, bs.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("configuration memory wrong after SRAM reconfig")
	}
}

func TestCompressedReconfigIsFaster(t *testing.T) {
	r1 := newRig(t)
	bs1, _ := r1.aspBitstream(t, "sha3", 0) // sparse → compressible
	raw := r1.loadVia(t, bs1, false)

	r2 := newRig(t)
	bs2, rp := r2.aspBitstream(t, "sha3", 0)
	comp := r2.loadVia(t, bs2, true)

	if !comp.CRCValid {
		t.Fatal("compressed reconfiguration did not verify")
	}
	if comp.BytesFromSRAM >= raw.BytesFromSRAM {
		t.Errorf("compressed image %d B should be smaller than raw %d B",
			comp.BytesFromSRAM, raw.BytesFromSRAM)
	}
	if comp.LatencyUS >= raw.LatencyUS {
		t.Errorf("decompressor should shorten the transfer: %.1f vs %.1f µs",
			comp.LatencyUS, raw.LatencyUS)
	}
	// Effective throughput (expanded bytes / time) must beat the SRAM port
	// rate — the decompressor synthesises zeros for free.
	if comp.ThroughputMBs <= TheoreticalThroughputMBs() {
		t.Errorf("effective throughput %.1f should exceed port rate", comp.ThroughputMBs)
	}
	eq, err := r2.mem.RegionEqual(rp, bs2.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("memory wrong after compressed reconfig")
	}
}

func TestPreloadTimePacedByDDR(t *testing.T) {
	r := newRig(t)
	bs, _ := r.aspBitstream(t, "fft1k", 0)
	if err := r.sys.Register(bs, false); err != nil {
		t.Fatal(err)
	}
	var at sim.Time
	start := r.kernel.Now()
	if err := r.sys.Preload("fft1k", func(p Preloaded) { at = p.At }); err != nil {
		t.Fatal(err)
	}
	r.kernel.Run()
	elapsed := at.Sub(start).Seconds()
	rate := float64(bs.Size()) / elapsed / 1e6
	// DDR effective ≈813 MB/s, chunked copy with SRAM write serialisation
	// lands below that but in the hundreds.
	if rate < 300 || rate > 820 {
		t.Errorf("preload rate = %.1f MB/s", rate)
	}
}

func TestPreloadOverlapBeatsSerial(t *testing.T) {
	// The PS scheduler's point: pre-loading the next bitstream during the
	// current ASP's compute hides the DRAM→SRAM copy entirely.
	computeTime := 800 * sim.Microsecond

	// Serial: compute, then copy, then reconfigure.
	r1 := newRig(t)
	bs1, _ := r1.aspBitstream(t, "aes-gcm", 0)
	if err := r1.sys.Register(bs1, false); err != nil {
		t.Fatal(err)
	}
	t0 := r1.kernel.Now()
	r1.kernel.RunFor(computeTime) // ASP computing, scheduler idle
	doneCopy := false
	if err := r1.sys.Preload("aes-gcm", func(Preloaded) { doneCopy = true }); err != nil {
		t.Fatal(err)
	}
	r1.kernel.Run()
	if !doneCopy {
		t.Fatal("copy incomplete")
	}
	var res1 *ReconfigResult
	if err := r1.sys.Reconfigure(func(rr ReconfigResult) { res1 = &rr }); err != nil {
		t.Fatal(err)
	}
	r1.kernel.Run()
	serial := r1.kernel.Now().Sub(t0)

	// Overlapped: preload issued at compute start.
	r2 := newRig(t)
	bs2, _ := r2.aspBitstream(t, "aes-gcm", 0)
	if err := r2.sys.Register(bs2, false); err != nil {
		t.Fatal(err)
	}
	t0 = r2.kernel.Now()
	if err := r2.sys.Preload("aes-gcm", nil); err != nil {
		t.Fatal(err)
	}
	r2.kernel.RunFor(computeTime) // copy proceeds during compute
	var res2 *ReconfigResult
	if err := r2.sys.Reconfigure(func(rr ReconfigResult) { res2 = &rr }); err != nil {
		t.Fatal(err)
	}
	r2.kernel.Run()
	overlapped := r2.kernel.Now().Sub(t0)

	if res1 == nil || res2 == nil {
		t.Fatal("reconfigs incomplete")
	}
	saved := float64(serial-overlapped) / 1e6 // µs
	copyUS := float64(bs2.Size()) / 700.0     // rough copy time at ~700 MB/s
	if saved < copyUS*0.5 {
		t.Errorf("overlap saved only %.1f µs, want most of the ≈%.0f µs copy", saved, copyUS)
	}
	if overlapped >= serial {
		t.Errorf("overlapped %.1f µs not faster than serial %.1f µs",
			float64(overlapped)/1e6, float64(serial)/1e6)
	}
}

func TestErrorPaths(t *testing.T) {
	r := newRig(t)
	bs, _ := r.aspBitstream(t, "fir128", 0)

	if err := r.sys.Reconfigure(nil); err == nil {
		t.Error("reconfigure without preload must fail")
	}
	if err := r.sys.Preload("ghost", nil); err == nil {
		t.Error("preload of unregistered image must fail")
	}
	if err := r.sys.Register(bs, false); err != nil {
		t.Fatal(err)
	}
	if err := r.sys.Preload("fir128", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.sys.Preload("fir128", nil); err == nil {
		t.Error("concurrent preload must fail")
	}
	r.kernel.Run()
	if err := r.sys.Reconfigure(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.sys.Reconfigure(nil); err == nil {
		t.Error("concurrent reconfigure must fail")
	}
	r.kernel.Run()
}

func TestStatsCounters(t *testing.T) {
	r := newRig(t)
	bs, _ := r.aspBitstream(t, "fir128", 0)
	r.loadVia(t, bs, false)
	pre, rec := r.sys.Stats()
	if pre != 1 || rec != 1 {
		t.Errorf("stats = %d/%d, want 1/1", pre, rec)
	}
	if r.sys.SRAMDevice().Resident() != "fir128" {
		t.Errorf("resident = %q", r.sys.SRAMDevice().Resident())
	}
}

func TestHardMacroPortSurvives550MHz(t *testing.T) {
	// The Sec.-VI ICAP is timing-closed at 550 MHz: a transfer there must
	// complete with the interrupt delivered and data intact — unlike the
	// standard-IP path, which corrupts far below that.
	r := newRig(t)
	bs, rp := r.aspBitstream(t, "matmul8", 0)
	res := r.loadVia(t, bs, false)
	if !res.CRCValid {
		t.Error("550 MHz hard-macro transfer must verify")
	}
	eq, err := r.mem.RegionEqual(rp, bs.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("memory mismatch")
	}
}
