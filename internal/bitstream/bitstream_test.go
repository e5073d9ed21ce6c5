package bitstream

import (
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/platform"
	"repro/internal/sim"
)

func testFrames(n int, seed uint64) [][]uint32 {
	rng := sim.NewRNG(seed)
	frames := make([][]uint32, n)
	for i := range frames {
		f := make([]uint32, fabric.FrameWords)
		// Realistic partial bitstreams cluster their zeros: ~30% of frames
		// configure unused area (all zero); the rest have a used prefix and
		// a zero tail.
		if !rng.Bool(0.3) {
			used := 40 + rng.Intn(fabric.FrameWords-40)
			for w := 0; w < used; w++ {
				f[w] = rng.Uint32()
			}
		}
		frames[i] = f
	}
	return frames
}

func buildStandard(t *testing.T) (*fabric.Device, fabric.Region, *Bitstream) {
	t.Helper()
	d := platform.Default().Device()
	rp := platform.Default().RPs()[0]
	bs, err := Build(d, rp, "asp-fir", testFrames(d.RegionFrames(rp), 1))
	if err != nil {
		t.Fatal(err)
	}
	return d, rp, bs
}

func TestBuildProducesPaperCalibratedSize(t *testing.T) {
	// The headline calibration: a standard RP bitstream must be exactly
	// 528,760 bytes — the size implied by every row of Table I.
	_, _, bs := buildStandard(t)
	if bs.Size() != 528760 {
		t.Fatalf("bitstream size = %d, want 528760", bs.Size())
	}
	if got := ExpectedSize(1308); got != 528760 {
		t.Errorf("ExpectedSize(1308) = %d, want 528760", got)
	}
}

func TestBuildHeaderRoundTrip(t *testing.T) {
	_, _, bs := buildStandard(t)
	h, err := ParseHeader(bs.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "asp-fir" {
		t.Errorf("Name = %q", h.Name)
	}
	if h.Part != "xc7z020" {
		t.Errorf("Part = %q", h.Part)
	}
	if h.Frames != 1308 {
		t.Errorf("Frames = %d", h.Frames)
	}
	if h.DataWords*4+HeaderBytes != bs.Size() {
		t.Errorf("DataWords inconsistent with size")
	}
}

func TestParseHeaderDetectsCorruption(t *testing.T) {
	_, _, bs := buildStandard(t)
	raw := make([]byte, len(bs.Raw))
	copy(raw, bs.Raw)
	raw[HeaderBytes+12345] ^= 0x40
	if _, err := ParseHeader(raw); err == nil {
		t.Error("payload corruption must fail the file CRC")
	}
	if _, err := ParseHeader(raw[:20]); err == nil {
		t.Error("truncated header must fail")
	}
	bad := make([]byte, len(bs.Raw))
	copy(bad, bs.Raw)
	copy(bad[0:8], "NOTMAGIC")
	if _, err := ParseHeader(bad); err == nil {
		t.Error("bad magic must fail")
	}
}

func TestBuildValidatesInput(t *testing.T) {
	d := platform.Default().Device()
	rp := platform.Default().RPs()[0]
	if _, err := Build(d, rp, "x", testFrames(3, 1)); err == nil {
		t.Error("wrong frame count must fail")
	}
	frames := testFrames(d.RegionFrames(rp), 1)
	frames[0] = frames[0][:50]
	if _, err := Build(d, rp, "x", frames); err == nil {
		t.Error("short frame must fail")
	}
	if _, err := Build(d, rp, "a-very-long-name-indeed", testFrames(d.RegionFrames(rp), 1)); err == nil {
		t.Error("long name must fail")
	}
	if _, err := Build(d, fabric.Region{Name: "bad", Row: 9}, "x", nil); err == nil {
		t.Error("invalid region must fail")
	}
}

func TestPacketEncodingDecoding(t *testing.T) {
	tests := []struct {
		w    uint32
		want Header
	}{
		{Type1(OpWrite, RegFDRI, 0), Header{Type: 1, Op: OpWrite, Reg: RegFDRI, Words: 0}},
		{Type1(OpWrite, RegCMD, 1), Header{Type: 1, Op: OpWrite, Reg: RegCMD, Words: 1}},
		{Type1(OpRead, RegFDRO, 500), Header{Type: 1, Op: OpRead, Reg: RegFDRO, Words: 500}},
		{Type2(OpWrite, 132108), Header{Type: 2, Op: OpWrite, Words: 132108}},
	}
	for _, tt := range tests {
		got, ok := Decode(tt.w)
		if !ok {
			t.Fatalf("Decode(%#x) not a header", tt.w)
		}
		if got != tt.want {
			t.Errorf("Decode(%#x) = %+v, want %+v", tt.w, got, tt.want)
		}
	}
	if _, ok := Decode(DummyWord); ok {
		t.Error("dummy word must not decode as a header")
	}
	if _, ok := Decode(SyncWord); ok {
		t.Error("sync word must not decode as a header")
	}
	// NOP decodes as a type-1 zero-count packet with OpNOP.
	h, ok := Decode(NOP)
	if !ok || h.Op != OpNOP || h.Words != 0 {
		t.Errorf("NOP decode = %+v ok=%v", h, ok)
	}
}

func TestPacketEncodingPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Type1(OpWrite, RegFDRI, Type1MaxWords+1)
}

func TestConfigCRCDetectsAnySingleBitFlip(t *testing.T) {
	frames := testFrames(4, 2)
	var a ConfigCRC
	for _, f := range frames {
		a.UpdateWords(RegFDRI, f)
	}
	orig := a.Value()
	// Flip one bit in one word and recompute.
	frames[2][37] ^= 1 << 19
	var b ConfigCRC
	for _, f := range frames {
		b.UpdateWords(RegFDRI, f)
	}
	if b.Value() == orig {
		t.Error("single-bit flip not detected by config CRC")
	}
}

func TestConfigCRCUpdateWordsMatchesUpdate(t *testing.T) {
	words := make([]uint32, 700)
	rng := sim.NewRNG(3)
	for i := range words {
		words[i] = rng.Uint32()
	}
	var a, b ConfigCRC
	a.UpdateWords(RegFDRI, words)
	for _, w := range words {
		b.Update(RegFDRI, w)
	}
	if a.Value() != b.Value() {
		t.Errorf("batched %08x != serial %08x", a.Value(), b.Value())
	}
}

func TestConfigCRCRegisterAddressMatters(t *testing.T) {
	var a, b ConfigCRC
	a.Update(RegFDRI, 0x1234)
	b.Update(RegFAR, 0x1234)
	if a.Value() == b.Value() {
		t.Error("CRC must include the register address")
	}
}

func TestConfigCRCResetAndZeroValue(t *testing.T) {
	var a ConfigCRC
	a.Update(RegFDRI, 99)
	a.Reset()
	if a.Value() != 0 {
		t.Error("reset CRC must be zero")
	}
}

func TestFrameCRCMatchesBuilderExpectation(t *testing.T) {
	// FrameCRC over the same frames twice is stable and corruption-visible.
	frames := testFrames(10, 4)
	c1 := FrameCRC(frames)
	c2 := FrameCRC(frames)
	if c1 != c2 {
		t.Error("FrameCRC not deterministic")
	}
	frames[9][100] ^= 0x8000
	if FrameCRC(frames) == c1 {
		t.Error("FrameCRC missed corruption in the last word")
	}
}

func TestBitstreamWordsAccessor(t *testing.T) {
	_, _, bs := buildStandard(t)
	words := bs.Words()
	if len(words) != bs.Header.DataWords {
		t.Fatalf("Words() = %d, want %d", len(words), bs.Header.DataWords)
	}
	if words[0] != DummyWord {
		t.Errorf("first word = %#x, want dummy", words[0])
	}
	if words[12] != SyncWord {
		t.Errorf("word 12 = %#x, want sync", words[12])
	}
	if words[len(words)-1] != NOP {
		t.Errorf("last word = %#x, want NOP trail", words[len(words)-1])
	}
}

func TestCompressRoundTrip(t *testing.T) {
	_, _, bs := buildStandard(t)
	comp, err := Compress(bs.Raw)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(bs.Raw) {
		t.Fatalf("round trip length %d, want %d", len(back), len(bs.Raw))
	}
	for i := range back {
		if back[i] != bs.Raw[i] {
			t.Fatalf("round trip differs at byte %d", i)
		}
	}
	ratio := CompressionRatio(bs.Raw, comp)
	if ratio < 1.3 {
		t.Errorf("compression ratio %.2f too low for 60%%-zero bitstream", ratio)
	}
}

func TestCompressRoundTripProperty(t *testing.T) {
	prop := func(words []uint32, zeroEvery uint8) bool {
		raw := make([]byte, len(words)*4)
		for i, w := range words {
			// int-widen before the +1: zeroEvery==255 would wrap to a
			// zero modulus in uint8.
			if zeroEvery > 0 && i%(int(zeroEvery)+1) == 0 {
				w = 0
			}
			raw[i*4] = byte(w >> 24)
			raw[i*4+1] = byte(w >> 16)
			raw[i*4+2] = byte(w >> 8)
			raw[i*4+3] = byte(w)
		}
		comp, err := Compress(raw)
		if err != nil {
			return false
		}
		back, err := Decompress(comp)
		if err != nil {
			return false
		}
		if len(back) != len(raw) {
			return false
		}
		for i := range raw {
			if raw[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompressRejectsUnaligned(t *testing.T) {
	if _, err := Compress(make([]byte, 7)); err == nil {
		t.Error("unaligned input must fail")
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC0000"),
	}
	for _, c := range cases {
		if _, err := Decompress(c); err == nil {
			t.Errorf("Decompress(%q) should fail", c)
		}
	}
	// Truncated valid stream.
	raw := make([]byte, 64)
	for i := range raw {
		raw[i] = byte(i)
	}
	comp, err := Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(comp[:len(comp)-4]); err == nil {
		t.Error("truncated stream should fail")
	}
}

func TestRegAndCmdStrings(t *testing.T) {
	if RegFDRI.String() != "FDRI" || RegCRC.String() != "CRC" {
		t.Error("register names wrong")
	}
	if Reg(0x1F).String() != "Reg(0x1F)" {
		t.Errorf("unknown reg = %q", Reg(0x1F).String())
	}
	if CmdWCFG.String() != "WCFG" || CmdDesync.String() != "DESYNC" {
		t.Error("command names wrong")
	}
	if Cmd(0xE).String() != "Cmd(0xE)" {
		t.Errorf("unknown cmd = %q", Cmd(0xE).String())
	}
}

func TestConfigCRCMatchesBitstreamField(t *testing.T) {
	// Replaying the builder's FDRI payload through a fresh ConfigCRC (with
	// the same register-write sequence) must land on Bitstream.ConfigCRC.
	d := platform.Default().Device()
	rp := platform.Default().RPs()[0]
	frames := testFrames(d.RegionFrames(rp), 5)
	bs, err := Build(d, rp, "crc-check", frames)
	if err != nil {
		t.Fatal(err)
	}
	var crc ConfigCRC
	crc.Update(RegIDCODE, d.IDCode)
	crc.Update(RegCMD, uint32(CmdRCRC))
	crc.Reset()
	crc.Update(RegFAR, bs.Start.FAR())
	crc.Update(RegCMD, uint32(CmdWCFG))
	for _, f := range frames {
		crc.UpdateWords(RegFDRI, f)
	}
	if crc.Value() != bs.ConfigCRC {
		t.Errorf("replayed CRC %08x != builder %08x", crc.Value(), bs.ConfigCRC)
	}
}
