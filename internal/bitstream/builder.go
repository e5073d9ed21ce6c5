package bitstream

import (
	"encoding/binary"
	"fmt"

	"repro/internal/fabric"
)

// HeaderBytes is the fixed size of the BIT-style file header.
const HeaderBytes = 48

// CommandOverheadWords is the number of non-data configuration words in
// every partial bitstream this builder emits (preamble, register writes,
// CRC, desync and NOP trail). It is held constant so the file size is a
// pure function of the frame count:
//
//	size = HeaderBytes + 4·(CommandOverheadWords + frames·101)
//
// For the standard 1308-frame RP this gives 48 + 4·132178 = 528,760 bytes —
// the size implied by every row of the paper's Table I.
const CommandOverheadWords = 70

// FileHeader is the decoded BIT-style header.
type FileHeader struct {
	Name      string // design/ASP name, ≤15 bytes
	Part      string // device part, ≤7 bytes
	DataWords int    // config words following the header
	Frames    int    // frame count carried in FDRI
	FileCRC   uint32 // CRC-32C of the config-word payload
}

const fileMagic = "ZPDRBITS"

// Bitstream is a fully assembled partial bitstream plus the metadata needed
// by loaders and by the ground-truth oracle in tests. Build fills every
// field, and nothing writes one afterwards, so one image can be shared by
// any number of boards and goroutines: treat it and every slice it holds as
// read-only.
type Bitstream struct {
	Header FileHeader
	// Raw is the complete file image (header + config words, big-endian).
	Raw []byte
	// Start is the first frame address written.
	Start fabric.FrameAddr
	// Frames is the frame payload in configuration order (references, not
	// copies, of the builder input).
	Frames [][]uint32
	// ConfigCRC is the expected running CRC at the CRC-register write.
	ConfigCRC uint32

	// words is the config-word payload Raw encodes; frameCRC is
	// FrameCRC(Frames).
	words    []uint32
	frameCRC uint32
}

// Size returns the file image size in bytes.
func (b *Bitstream) Size() int { return len(b.Raw) }

// Words returns the config-word payload (after the file header) as
// uint32s: the words Build serialised into Raw, which loaders stream into
// the DMA model. The slice is shared: treat it as read-only.
func (b *Bitstream) Words() []uint32 { return b.words }

// FrameCRC returns the detached checksum of the frame payload: the golden
// reference the CRC read-back monitor compares against, computed by Build.
func (b *Bitstream) FrameCRC() uint32 { return b.frameCRC }

// Build assembles a partial bitstream that configures region r of device dev
// with the given frames (len must equal dev.RegionFrames(r)).
func Build(dev *fabric.Device, r fabric.Region, name string, frames [][]uint32) (*Bitstream, error) {
	if err := dev.Validate(r); err != nil {
		return nil, err
	}
	want := dev.RegionFrames(r)
	if len(frames) != want {
		return nil, fmt.Errorf("bitstream: region %q needs %d frames, got %d", r.Name, want, len(frames))
	}
	for i, f := range frames {
		if len(f) != fabric.FrameWords {
			return nil, fmt.Errorf("bitstream: frame %d has %d words, want %d", i, len(f), fabric.FrameWords)
		}
	}
	if len(name) > 15 {
		return nil, fmt.Errorf("bitstream: name %q longer than 15 bytes", name)
	}

	start := r.RegionStart()
	dataWords := len(frames) * fabric.FrameWords
	var crc ConfigCRC
	words := make([]uint32, 0, CommandOverheadWords+dataWords)

	emit := func(w uint32) { words = append(words, w) }
	write1 := func(reg Reg, v uint32) {
		emit(Type1(OpWrite, reg, 1))
		emit(v)
		crc.Update(reg, v)
	}

	// Preamble: dummies, bus-width detection, sync. (13 words)
	for i := 0; i < 8; i++ {
		emit(DummyWord)
	}
	emit(BusWidthSync)
	emit(BusWidthDetect)
	emit(DummyWord)
	emit(DummyWord)
	emit(SyncWord)

	// Setup. (12 words)
	emit(NOP)
	write1(RegIDCODE, dev.IDCode)
	write1(RegCMD, uint32(CmdRCRC))
	crc.Reset() // RCRC zeroes the running CRC after the write folds in
	emit(NOP)
	emit(NOP)
	write1(RegFAR, start.FAR())
	write1(RegCMD, uint32(CmdWCFG))
	emit(NOP)

	// Frame data: type-1 FDRI header with zero count, then a type-2
	// continuation carrying the whole payload. (2 + dataWords words)
	emit(Type1(OpWrite, RegFDRI, 0))
	emit(Type2(OpWrite, dataWords))
	for _, f := range frames {
		words = append(words, f...)
		crc.UpdateWords(RegFDRI, f)
	}

	// Postamble: CRC check, LFRM, desync. The CRC word itself is the value
	// accumulated so far (the device compares before folding).
	expectCRC := crc.Value()
	emit(Type1(OpWrite, RegCRC, 1))
	emit(expectCRC)
	write1(RegCMD, uint32(CmdLFRM))
	emit(NOP)
	emit(NOP)
	emit(NOP)
	write1(RegCMD, uint32(CmdDesync))

	// NOP trail pads the command overhead to the fixed budget.
	overhead := len(words) - dataWords
	if overhead > CommandOverheadWords {
		return nil, fmt.Errorf("bitstream: command overhead %d exceeds budget %d", overhead, CommandOverheadWords)
	}
	for overhead < CommandOverheadWords {
		emit(NOP)
		overhead++
	}

	// Serialise.
	raw := make([]byte, HeaderBytes+4*len(words))
	for i, w := range words {
		binary.BigEndian.PutUint32(raw[HeaderBytes+i*4:], w)
	}
	hdr := FileHeader{
		Name:      name,
		Part:      dev.Name,
		DataWords: len(words),
		Frames:    len(frames),
		FileCRC:   FileCRC(raw[HeaderBytes:]),
	}
	putHeader(raw[:HeaderBytes], hdr)

	return &Bitstream{
		Header:    hdr,
		Raw:       raw,
		Start:     start,
		Frames:    frames,
		ConfigCRC: expectCRC,
		words:     words,
		frameCRC:  FrameCRC(frames),
	}, nil
}

func putHeader(dst []byte, h FileHeader) {
	copy(dst[0:8], fileMagic)
	binary.BigEndian.PutUint32(dst[8:12], 1) // version
	copy(dst[12:28], h.Name)                 // NUL-padded
	copy(dst[28:36], h.Part)
	binary.BigEndian.PutUint32(dst[36:40], uint32(h.DataWords))
	binary.BigEndian.PutUint32(dst[40:44], uint32(h.Frames))
	binary.BigEndian.PutUint32(dst[44:48], h.FileCRC)
}

// ParseHeader decodes and validates the file header and payload CRC of a
// raw bitstream image.
func ParseHeader(raw []byte) (FileHeader, error) {
	if len(raw) < HeaderBytes {
		return FileHeader{}, fmt.Errorf("bitstream: image of %d bytes shorter than header", len(raw))
	}
	if string(raw[0:8]) != fileMagic {
		return FileHeader{}, fmt.Errorf("bitstream: bad magic %q", raw[0:8])
	}
	h := FileHeader{
		Name:      cstr(raw[12:28]),
		Part:      cstr(raw[28:36]),
		DataWords: int(binary.BigEndian.Uint32(raw[36:40])),
		Frames:    int(binary.BigEndian.Uint32(raw[40:44])),
		FileCRC:   binary.BigEndian.Uint32(raw[44:48]),
	}
	if want := HeaderBytes + 4*h.DataWords; len(raw) != want {
		return h, fmt.Errorf("bitstream: image %d bytes, header says %d", len(raw), want)
	}
	if got := FileCRC(raw[HeaderBytes:]); got != h.FileCRC {
		return h, fmt.Errorf("bitstream: payload CRC mismatch (got %08x, header %08x)", got, h.FileCRC)
	}
	return h, nil
}

func cstr(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// ExpectedSize returns the file size Build produces for a region with the
// given frame count.
func ExpectedSize(frames int) int {
	return HeaderBytes + 4*(CommandOverheadWords+frames*fabric.FrameWords)
}
