// Package crcmon models the paper's "CRC Bitstream Read-Back" block: a
// hardware monitor that continuously reads the configuration memory back
// through the ICAP in the background, checks it against the golden CRC of
// the loaded bitstream, and asserts an interrupt with the verdict. It is the
// mechanism that makes the over-clocked system *robust*: a failed
// over-clocked transfer is detected rather than silently trusted.
//
// The monitor lives in the same over-clocked domain as the ICAP, so at
// control-path-violating frequencies its interrupt disappears too — which is
// exactly what the paper reports at 310 MHz ("the CRC block never asserted
// the interrupt").
package crcmon

import (
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/icap"
	"repro/internal/sim"
	"repro/internal/timing"
)

// Result is one completed scan verdict.
type Result struct {
	// Region is the monitored partition.
	Region string
	// Valid reports whether the read-back CRC matched the golden CRC.
	Valid bool
	// ScanNo counts completed scans of this region.
	ScanNo int
	// At is the simulated completion time.
	At sim.Time
	// IRQDelivered reports whether the interrupt actually reached the PS
	// (false when the control path was violating timing at scan end).
	IRQDelivered bool
}

// Monitor continuously scans one region.
type Monitor struct {
	kernel *sim.Kernel
	port   *icap.Port
	tmodel *timing.Model
	tempC  func() float64
	vdd    func() float64

	region    fabric.Region
	golden    uint32
	hasGolden bool

	// ChunkFrames is how many frames each read-back slice covers; smaller
	// chunks yield the port to foreground transfers sooner.
	ChunkFrames int

	// OnResult receives every scan verdict whose interrupt was delivered.
	OnResult func(Result)

	suspended bool
	running   bool
	scanNo    int
	gen       int // scan generation; stale chains abandon themselves
	last      Result
	hasLast   bool
}

// Config bundles Monitor dependencies.
type Config struct {
	Kernel *sim.Kernel
	Port   *icap.Port
	Timing *timing.Model
	TempC  func() float64
	Vdd    func() float64
	Region fabric.Region
}

// New creates a monitor for the region. Call Start to begin scanning.
func New(cfg Config) *Monitor {
	if cfg.Kernel == nil || cfg.Port == nil || cfg.Timing == nil {
		panic("crcmon: missing dependency")
	}
	tempC := cfg.TempC
	if tempC == nil {
		tempC = func() float64 { return 40 }
	}
	vdd := cfg.Vdd
	if vdd == nil {
		nom := cfg.Timing.VNom
		vdd = func() float64 { return nom }
	}
	return &Monitor{
		kernel:      cfg.Kernel,
		port:        cfg.Port,
		tmodel:      cfg.Timing,
		tempC:       tempC,
		vdd:         vdd,
		region:      cfg.Region,
		ChunkFrames: 32,
	}
}

// SetGolden installs the reference CRC for the region, computed from the
// bitstream that was (supposed to be) loaded.
func (m *Monitor) SetGolden(frames [][]uint32) {
	m.SetGoldenCRC(bitstream.FrameCRC(frames))
}

// SetGoldenCRC installs a precomputed reference CRC (a bitstream carries
// its own, computed when it is built, so loads skip the recompute).
func (m *Monitor) SetGoldenCRC(crc uint32) {
	m.golden = crc
	m.hasGolden = true
}

// Golden returns the installed reference CRC.
func (m *Monitor) Golden() (uint32, bool) { return m.golden, m.hasGolden }

// Suspend pauses scanning (the PR controller suspends read-back during an
// active configuration write, as readback interleaved with writes is
// undefined on real devices).
func (m *Monitor) Suspend() { m.suspended = true }

// Resume restarts scanning after Suspend.
func (m *Monitor) Resume() {
	wasSuspended := m.suspended
	m.suspended = false
	if m.running && wasSuspended {
		m.kernel.Schedule(0, m.scan)
	}
}

// Start begins continuous background scanning.
func (m *Monitor) Start() {
	if m.running {
		return
	}
	m.running = true
	if !m.suspended {
		m.kernel.Schedule(0, m.scan)
	}
}

// Stop halts scanning after the in-flight chunk.
func (m *Monitor) Stop() { m.running = false }

// Last returns the most recent verdict (polled by the PS when no interrupt
// arrives — how the paper established "not valid" at 320/360 MHz).
func (m *Monitor) Last() (Result, bool) { return m.last, m.hasLast }

// ScansCompleted returns the number of full scans finished.
func (m *Monitor) ScansCompleted() int { return m.scanNo }

// scan performs one full pass over the region in chunks, folding each
// read-back frame into a running CRC as it streams out of the port — the
// monitor never materialises the region image.
func (m *Monitor) scan() {
	if !m.running || m.suspended || !m.hasGolden {
		return
	}
	m.gen++
	gen := m.gen
	dev := m.port.Memory().Device()
	n := dev.RegionFrames(m.region)
	addr := m.region.RegionStart()

	// The hasher is scan-local on purpose: an abandoned scan's in-flight
	// read-back chunk still delivers its frames, and those must not fold
	// into a successor scan's checksum.
	var h bitstream.FrameCRCHasher
	visit := func(frame []uint32) { h.Fold(frame) }
	var step func(done int)
	step = func(done int) {
		if !m.running || m.suspended || m.gen != gen {
			return // abandoned scan; Resume starts a fresh one
		}
		if done >= n {
			m.finish(h.Sum())
			return
		}
		chunk := m.ChunkFrames
		if chunk > n-done {
			chunk = n - done
		}
		m.port.ReadbackVisit(addr, chunk, visit, func(err error) {
			if err != nil {
				// Region geometry errors are programming bugs.
				panic(err)
			}
			// Advance addr past the chunk.
			for i := 0; i < chunk && done+i+1 < n; i++ {
				var nerr error
				addr, nerr = dev.Next(addr)
				if nerr != nil {
					panic(nerr)
				}
			}
			step(done + chunk)
		})
	}
	step(0)
}

// finish computes the verdict and delivers the interrupt if the control
// path allows.
func (m *Monitor) finish(got uint32) {
	outcome := m.tmodel.Classify(m.port.Domain().Freq(), m.tempC(), m.vdd())
	valid := got == m.golden && outcome != timing.Corrupt
	m.scanNo++
	res := Result{
		Region: m.region.Name,
		Valid:  valid,
		ScanNo: m.scanNo,
		At:     m.kernel.Now(),
		// The interrupt path only works when the whole block meets timing;
		// at 310 MHz and above the paper saw no interrupt and had to poll.
		IRQDelivered: outcome == timing.OK,
	}
	m.last = res
	m.hasLast = true
	if res.IRQDelivered && m.OnResult != nil {
		m.OnResult(res)
	}
	// Continuous background operation: immediately begin the next scan.
	if m.running && !m.suspended {
		m.kernel.Schedule(0, m.scan)
	}
}
