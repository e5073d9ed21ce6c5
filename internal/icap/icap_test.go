package icap

import (
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
	"repro/internal/clock"
	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/internal/sim"
)

type rig struct {
	kernel *sim.Kernel
	domain *clock.Domain
	dev    *fabric.Device
	mem    *fabric.Memory
	port   *Port
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
	r.port = New(Config{
		Kernel: r.kernel,
		Domain: r.domain,
		Memory: r.mem,
		Timing: platform.Default().TimingModel(),
		TempC:  func() float64 { return r.tempC },
		Seed:   1,
	})
	return r
}

func makeFrames(n int, seed uint64) [][]uint32 {
	rng := sim.NewRNG(seed)
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

func buildFor(t *testing.T, r *rig, rpIdx int, seed uint64) *bitstream.Bitstream {
	t.Helper()
	rp := platform.Default().RPs()[rpIdx]
	bs, err := bitstream.Build(r.dev, rp, "test-asp", makeFrames(r.dev.RegionFrames(rp), seed))
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// feedAll streams the bitstream's config words in bursts of 32 words,
// respecting the done-callback pacing a DMA would.
func feedAll(r *rig, bs *bitstream.Bitstream) {
	words := bs.Words()
	var pump func()
	pump = func() {
		if len(words) == 0 {
			return
		}
		n := 32
		if n > len(words) {
			n = len(words)
		}
		chunk := words[:n]
		words = words[n:]
		r.port.Feed(chunk, pump)
	}
	pump()
	r.kernel.Run()
}

func TestLoadWritesAllFramesAndRaisesDone(t *testing.T) {
	r := newRig(t, 100*sim.MHz)
	bs := buildFor(t, r, 0, 7)
	var done *Status
	r.port.OnDone = func(s Status) { done = &s }
	r.port.Reset()
	feedAll(r, bs)
	if done == nil {
		t.Fatal("completion interrupt never fired")
	}
	if !done.Done || done.CRCError || done.SyncError || done.IDCODEError {
		t.Fatalf("status = %+v", *done)
	}
	if done.FramesWritten != 1308 {
		t.Errorf("FramesWritten = %d, want 1308", done.FramesWritten)
	}
	rp := platform.Default().RPs()[0]
	eq, err := r.mem.RegionEqual(rp, bs.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("configuration memory differs from bitstream payload")
	}
}

func TestLoadTimingIsOneWordPerCycle(t *testing.T) {
	r := newRig(t, 100*sim.MHz)
	bs := buildFor(t, r, 0, 8)
	r.port.Reset()
	start := r.kernel.Now()
	feedAll(r, bs)
	elapsed := r.kernel.Now().Sub(start)
	words := int64(len(bs.Words()))
	want := sim.Cycles(words, 100*sim.MHz) + (100 * sim.MHz).Period() // + IRQ cycle
	slack := 2 * sim.Microsecond
	if elapsed < want-slack || elapsed > want+slack {
		t.Errorf("elapsed = %v, want ≈%v (%d words @ 100MHz)", elapsed, want, words)
	}
}

func TestLoadFasterClockIsProportionallyFaster(t *testing.T) {
	r1 := newRig(t, 100*sim.MHz)
	bs1 := buildFor(t, r1, 0, 9)
	r1.port.Reset()
	t0 := r1.kernel.Now()
	feedAll(r1, bs1)
	d100 := r1.kernel.Now().Sub(t0)

	r2 := newRig(t, 200*sim.MHz)
	bs2 := buildFor(t, r2, 0, 9)
	r2.port.Reset()
	t0 = r2.kernel.Now()
	feedAll(r2, bs2)
	d200 := r2.kernel.Now().Sub(t0)

	ratio := float64(d100) / float64(d200)
	if ratio < 1.99 || ratio > 2.01 {
		t.Errorf("100→200 MHz speedup = %v, want ≈2.0", ratio)
	}
}

func TestHangSuppressesDoneButDataLands(t *testing.T) {
	// 310 MHz @ 40 °C: Table I's "N/A no interrupt … valid" row.
	r := newRig(t, 310*sim.MHz)
	bs := buildFor(t, r, 0, 10)
	fired := false
	r.port.OnDone = func(Status) { fired = true }
	r.port.Reset()
	feedAll(r, bs)
	if fired {
		t.Error("interrupt fired despite control-path violation")
	}
	if r.port.Status().Done {
		t.Error("Done latched despite hang")
	}
	rp := platform.Default().RPs()[0]
	eq, err := r.mem.RegionEqual(rp, bs.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("data should land intact at 310 MHz / 40°C")
	}
}

func TestCorruptionAt320MHz(t *testing.T) {
	// 320 MHz @ 40 °C: data path violates timing; memory content must
	// differ from the payload and the embedded CRC check must fail.
	r := newRig(t, 320*sim.MHz)
	bs := buildFor(t, r, 0, 11)
	r.port.Reset()
	feedAll(r, bs)
	rp := platform.Default().RPs()[0]
	eq, err := r.mem.RegionEqual(rp, bs.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("memory should be corrupted at 320 MHz")
	}
	if !r.port.Status().CRCError && !r.port.Status().SyncError {
		t.Error("corruption should trip CRC or sync error")
	}
}

func TestCorruptionAt310MHzAnd100C(t *testing.T) {
	// The single failing temperature-stress cell.
	r := newRig(t, 310*sim.MHz)
	r.tempC = 100
	bs := buildFor(t, r, 0, 12)
	r.port.Reset()
	feedAll(r, bs)
	rp := platform.Default().RPs()[0]
	eq, err := r.mem.RegionEqual(rp, bs.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("310 MHz @ 100°C must corrupt")
	}
}

func TestWrongIDCODERejected(t *testing.T) {
	r := newRig(t, 100*sim.MHz)
	bs := buildFor(t, r, 0, 13)
	// Words() returns the bitstream's cached image; copy before patching.
	words := append([]uint32(nil), bs.Words()...)
	// Patch the IDCODE value (word after the IDCODE type-1 header).
	patched := false
	for i, w := range words {
		if h, ok := bitstream.Decode(w); ok && h.Type == 1 && h.Reg == bitstream.RegIDCODE && h.Op == bitstream.OpWrite {
			words[i+1] = 0xDEADBEEF
			patched = true
			break
		}
	}
	if !patched {
		t.Fatal("no IDCODE write found")
	}
	r.port.Reset()
	r.port.Feed(words, nil)
	r.kernel.Run()
	if !r.port.Status().IDCODEError {
		t.Error("IDCODE mismatch not latched")
	}
	if r.port.Status().FramesWritten != 0 {
		t.Error("frames written despite IDCODE mismatch")
	}
}

func TestGarbageStreamSetsSyncError(t *testing.T) {
	r := newRig(t, 100*sim.MHz)
	r.port.Reset()
	words := []uint32{bitstream.SyncWord, 0x6FFFFFFF} // type 3 junk after sync
	r.port.Feed(words, nil)
	r.kernel.Run()
	if !r.port.Status().SyncError {
		t.Error("junk header should set SyncError")
	}
}

func TestFDRIWithoutWCFGIsError(t *testing.T) {
	r := newRig(t, 100*sim.MHz)
	r.port.Reset()
	words := []uint32{
		bitstream.SyncWord,
		bitstream.Type1(bitstream.OpWrite, bitstream.RegFDRI, 2),
		1, 2,
	}
	r.port.Feed(words, nil)
	r.kernel.Run()
	if !r.port.Status().SyncError {
		t.Error("FDRI without WCFG/FAR should error")
	}
}

func TestResetClearsState(t *testing.T) {
	r := newRig(t, 100*sim.MHz)
	bs := buildFor(t, r, 0, 14)
	r.port.Reset()
	feedAll(r, bs)
	if r.port.WordsIn() == 0 {
		t.Fatal("no words consumed")
	}
	r.port.Reset()
	if r.port.WordsIn() != 0 || r.port.Status() != (Status{}) {
		t.Error("Reset did not clear state")
	}
}

func TestBackToBackLoadsDifferentRPs(t *testing.T) {
	r := newRig(t, 200*sim.MHz)
	bs1 := buildFor(t, r, 0, 15)
	bs2 := buildFor(t, r, 1, 16)
	r.port.Reset()
	feedAll(r, bs1)
	r.port.Reset()
	feedAll(r, bs2)
	rps := platform.Default().RPs()
	eq1, _ := r.mem.RegionEqual(rps[0], bs1.Frames)
	eq2, _ := r.mem.RegionEqual(rps[1], bs2.Frames)
	if !eq1 || !eq2 {
		t.Errorf("RP contents wrong after back-to-back loads: rp1=%v rp2=%v", eq1, eq2)
	}
}

func TestReadbackReturnsWrittenFrames(t *testing.T) {
	r := newRig(t, 100*sim.MHz)
	bs := buildFor(t, r, 0, 17)
	r.port.Reset()
	feedAll(r, bs)
	rp := platform.Default().RPs()[0]
	var got [][]uint32
	start := r.kernel.Now()
	r.port.Readback(rp.RegionStart(), 10, func(frames [][]uint32, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		got = frames
	})
	r.kernel.Run()
	if len(got) != 10 {
		t.Fatalf("readback frames = %d", len(got))
	}
	elapsed := r.kernel.Now().Sub(start)
	want := sim.Cycles(10*fabric.FrameWords, 100*sim.MHz)
	if elapsed != want {
		t.Errorf("readback time = %v, want %v", elapsed, want)
	}
	for i := range got {
		for w := range got[i] {
			if got[i][w] != bs.Frames[i][w] {
				t.Fatalf("frame %d word %d mismatch", i, w)
			}
		}
	}
}

func TestReserveSerializesPort(t *testing.T) {
	r := newRig(t, 100*sim.MHz)
	end1 := r.port.Reserve(100)
	end2 := r.port.Reserve(50)
	if end2 != end1.Add(sim.Cycles(50, 100*sim.MHz)) {
		t.Errorf("second reservation %v should start after first %v", end2, end1)
	}
}

func TestFeedEmptyBurstCompletesImmediately(t *testing.T) {
	r := newRig(t, 100*sim.MHz)
	called := false
	r.port.Feed(nil, func() { called = true })
	if !called {
		t.Error("empty burst should invoke done synchronously")
	}
}

func TestDeterministicCorruptionPattern(t *testing.T) {
	// Same seed ⇒ same corruption ⇒ same final memory state.
	run := func() uint32 {
		r := newRig(t, 360*sim.MHz)
		bs := buildFor(t, r, 0, 18)
		r.port.Reset()
		feedAll(r, bs)
		rp := platform.Default().RPs()[0]
		idx, err := r.mem.RegionFrameIndices(rp)
		if err != nil {
			t.Fatal(err)
		}
		frames := make([][]uint32, len(idx))
		for i, lin := range idx {
			frames[i] = r.mem.FrameSlice(lin)
		}
		return bitstream.FrameCRC(frames)
	}
	if run() != run() {
		t.Error("corruption not deterministic for equal seeds")
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: at any operational frequency and temperature, an arbitrary
	// frame payload streamed through the port lands bit-exactly in
	// configuration memory with Done latched and no errors.
	prop := func(seed uint64, fRaw uint8, tRaw uint8) bool {
		freqMHz := 100 + float64(fRaw%19)*10 // 100..280
		temp := 40 + float64(tRaw%7)*10      // 40..100
		r := newRig(t, sim.Hz(freqMHz*1e6))
		r.tempC = temp
		bs := buildFor(t, r, int(seed%4), seed)
		r.port.Reset()
		feedAll(r, bs)
		st := r.port.Status()
		if !st.Done || st.CRCError || st.SyncError || st.FramesWritten != 1308 {
			return false
		}
		rp := platform.Default().RPs()[int(seed%4)]
		eq, err := r.mem.RegionEqual(rp, bs.Frames)
		return err == nil && eq
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestBurstSizeInvariance(t *testing.T) {
	// The parser must be insensitive to how the stream is chopped into
	// bursts: 7-word and 256-word deliveries must produce identical memory.
	run := func(burst int) uint32 {
		r := newRig(t, 200*sim.MHz)
		bs := buildFor(t, r, 0, 77)
		r.port.Reset()
		words := bs.Words()
		var pump func()
		pump = func() {
			if len(words) == 0 {
				return
			}
			n := burst
			if n > len(words) {
				n = len(words)
			}
			chunk := words[:n]
			words = words[n:]
			r.port.Feed(chunk, pump)
		}
		pump()
		r.kernel.Run()
		rp := platform.Default().RPs()[0]
		idx, err := r.mem.RegionFrameIndices(rp)
		if err != nil {
			t.Fatal(err)
		}
		frames := make([][]uint32, len(idx))
		for i, lin := range idx {
			frames[i] = r.mem.FrameSlice(lin)
		}
		return bitstream.FrameCRC(frames)
	}
	if run(7) != run(256) {
		t.Error("memory state depends on burst framing")
	}
}
