package board

import (
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/boot"
	"repro/internal/sim"
	"repro/internal/zynq"
)

func newBoard(t *testing.T) *Board {
	t.Helper()
	p, err := zynq.NewPlatform(zynq.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return New(p)
}

func TestBootRequiresBootBin(t *testing.T) {
	b := newBoard(t)
	if err := b.Boot(); err == nil {
		t.Fatal("boot without boot.bin must fail")
	}
	b.SD.Store("boot.bin", []byte{1, 2, 3})
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	if !b.Booted() {
		t.Error("not booted")
	}
	if !b.Platform.PLConfigured() {
		t.Error("static design not loaded at boot")
	}
	if b.OLED.Line(0) == "" {
		t.Error("OLED should show status after boot")
	}
}

func TestSDCardStoreLoadList(t *testing.T) {
	sd := NewSDCard()
	sd.Store("a.bit", []byte{1})
	sd.Store("b.bit", []byte{2})
	got, err := sd.Load("a.bit")
	if err != nil || len(got) != 1 {
		t.Errorf("Load: %v %v", got, err)
	}
	if _, err := sd.Load("missing"); err == nil {
		t.Error("missing file should fail")
	}
	files := sd.Files()
	if len(files) != 2 || files[0] != "a.bit" || files[1] != "b.bit" {
		t.Errorf("Files = %v", files)
	}
}

func TestSwitchesSelectFrequency(t *testing.T) {
	b := newBoard(t)
	for i, want := range b.SwitchTable() {
		b.SetSwitches(uint8(i))
		got, err := b.SelectedFrequencyMHz()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("switch %d → %v MHz, want %v", i, got, want)
		}
	}
	b.SetSwitches(200)
	if _, err := b.SelectedFrequencyMHz(); err == nil {
		t.Error("out-of-table switches should error")
	}
}

func TestButtonPressInvokesHandlerLater(t *testing.T) {
	b := newBoard(t)
	pressed := false
	b.OnButton(BtnLoadA, func() { pressed = true })
	b.Press(BtnLoadA)
	if pressed {
		t.Error("handler ran synchronously")
	}
	b.Platform.Kernel.RunFor(2 * sim.Millisecond)
	if !pressed {
		t.Error("handler never ran")
	}
	b.Press(BtnLoadB) // no handler installed: must not panic
}

func TestOLEDTruncatesAndBounds(t *testing.T) {
	o := &OLED{}
	o.SetLine(0, "a very long line that exceeds the panel width")
	if len(o.Line(0)) != 21 {
		t.Errorf("line length = %d", len(o.Line(0)))
	}
	o.SetLine(-1, "x")
	o.SetLine(9, "x")
	if o.Line(-1) != "" || o.Line(9) != "" {
		t.Error("out-of-range lines should read empty")
	}
	o.SetLine(1, "two")
	if !strings.Contains(o.String(), "two") {
		t.Error("String missing content")
	}
}

func TestOLEDTruncatesOnRuneBoundary(t *testing.T) {
	o := &OLED{}
	// 20 ASCII bytes followed by a 2-byte rune: byte 21 lands mid-rune, so a
	// naive s[:21] would split "°" into an invalid byte.
	s := strings.Repeat("a", 20) + "°C"
	o.SetLine(0, s)
	got := o.Line(0)
	if !utf8.ValidString(got) {
		t.Fatalf("truncated line is not valid UTF-8: %q", got)
	}
	if got != strings.Repeat("a", 20) {
		t.Errorf("line = %q, want the 20 a's with the split rune dropped", got)
	}
	if len(got) > 21 {
		t.Errorf("line length = %d bytes, want ≤ 21", len(got))
	}
	// A line of pure multi-byte runes must also cut cleanly.
	o.SetLine(1, strings.Repeat("°", 15)) // 30 bytes
	if l := o.Line(1); !utf8.ValidString(l) || len(l) > 21 || len(l)%2 != 0 {
		t.Errorf("multi-byte line = %q (%d bytes)", l, len(l))
	}
}

func TestShowStatusRendersPaperLayout(t *testing.T) {
	b := newBoard(t)
	b.ShowStatus(280, true, 669.20)
	if !strings.Contains(b.OLED.Line(0), "280MHz") {
		t.Errorf("line0 = %q", b.OLED.Line(0))
	}
	if b.OLED.Line(1) != "CRC: valid" {
		t.Errorf("line1 = %q", b.OLED.Line(1))
	}
	if !strings.Contains(b.OLED.Line(2), "669.20us") {
		t.Errorf("line2 = %q", b.OLED.Line(2))
	}
	b.ShowStatus(310, true, 0)
	if !strings.Contains(b.OLED.Line(2), "N/A") {
		t.Errorf("hang line2 = %q", b.OLED.Line(2))
	}
	b.ShowStatus(320, false, 0)
	if b.OLED.Line(1) != "CRC: NOT valid" {
		t.Errorf("invalid line1 = %q", b.OLED.Line(1))
	}
}

func TestMeterReadsBoardPower(t *testing.T) {
	b := newBoard(t)
	b.SD.Store("boot.bin", []byte{0})
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	pdr := b.Meter.ReadPDR()
	if pdr < 0.9 || pdr > 1.3 {
		t.Errorf("P_PDR after boot = %v W, want ≈1.0–1.2 (100 MHz)", pdr)
	}
}

func TestBootWithStructuredImage(t *testing.T) {
	b := newBoard(t)
	img, err := boot.Build([]boot.Partition{
		{Name: boot.PartFSBL, Data: make([]byte, 128*1024)},
		{Name: boot.PartBitstream, Data: make([]byte, 3272400)},
		{Name: boot.PartApp, Data: make([]byte, 600*1024)},
	})
	if err != nil {
		t.Fatal(err)
	}
	b.SD.Store("boot.bin", img)
	start := b.Platform.Kernel.Now()
	if err := b.Boot(); err != nil {
		t.Fatal(err)
	}
	elapsed := b.Platform.Kernel.Now().Sub(start)
	// ~4 MB at 20 MB/s ≈ 200 ms SD streaming + ~22.6 ms PCAP.
	if elapsed < 200*sim.Millisecond || elapsed > 260*sim.Millisecond {
		t.Errorf("boot took %v", elapsed)
	}
}

func TestBootRejectsCorruptImage(t *testing.T) {
	b := newBoard(t)
	img, err := boot.Build([]boot.Partition{
		{Name: boot.PartFSBL, Data: []byte("fsbl")},
	})
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0xFF // corrupt the FSBL payload
	b.SD.Store("boot.bin", img)
	if err := b.Boot(); err == nil {
		t.Error("corrupt boot image accepted")
	}
	if b.Booted() {
		t.Error("board booted from a corrupt image")
	}
}
