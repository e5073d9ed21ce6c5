package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/hll"
	"repro/internal/sim"
)

// digest is an FNV-1a accumulator over the simulated numbers of a result.
// It hashes values, not their formatting, and allocates nothing.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) byte1(b byte) {
	*d ^= digest(b)
	*d *= 1099511628211
}

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.byte1(byte(v >> (8 * i)))
	}
}

func (d *digest) int(v int)          { d.u64(uint64(v)) }
func (d *digest) f64(v float64)      { d.u64(math.Float64bits(v)) }
func (d *digest) dur(v sim.Duration) { d.u64(uint64(v)) }

func (d *digest) bool(v bool) {
	if v {
		d.byte1(1)
	} else {
		d.byte1(0)
	}
}

func (d *digest) str(s string) {
	d.int(len(s))
	for i := 0; i < len(s); i++ {
		d.byte1(s[i])
	}
}

func (d digest) hex() string { return fmt.Sprintf("%016x", uint64(d)) }

// sample hashes a latency sample by its count, moments and quantiles.
func (d *digest) sample(s *sim.Sample) {
	d.int(s.N())
	if s.N() == 0 {
		return
	}
	d.f64(s.Mean())
	d.f64(s.Min())
	d.f64(s.Max())
	for _, q := range []float64{0.5, 0.95, 0.99} {
		d.f64(s.Quantile(q))
	}
}

func (d *digest) tenants(m map[string]*hll.TenantStats) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := m[n]
		d.str(n)
		for _, v := range []int{t.Offered, t.Completed, t.Shed, t.Failed, t.DeadlineMisses} {
			d.int(v)
		}
	}
}

func (d *digest) service(s *hll.ServiceStats) {
	for _, v := range []int{s.Requests, s.Reconfigs, s.Hits, s.Failures, s.Offered, s.Admitted,
		s.Shed, s.Completed, s.DeadlineMisses, s.Lost, s.CRCAlarms, s.Repairs,
		s.Cache.Hits, s.Cache.Misses, s.Cache.Evictions} {
		d.int(v)
	}
	d.u64(uint64(s.Cache.ResidentBytes))
	d.u64(uint64(s.Cache.PeakBytes))
	for _, v := range []sim.Duration{s.ReconfigTime, s.ComputeTime, s.Makespan, s.StageTime, s.RepairTime} {
		d.dur(v)
	}
	d.sample(&s.QueueWaitUS)
	d.sample(&s.ServiceUS)
	d.sample(&s.SojournUS)
	d.tenants(s.Tenants)
	d.tenants(s.Classes)
}

// fleet hashes every simulated number of a fleet run.
func (d *digest) fleet(fs *cluster.FleetStats) {
	d.int(len(fs.Boards))
	for i := range fs.Boards {
		b := &fs.Boards[i]
		d.int(b.Index)
		d.str(b.Platform)
		d.int(b.Assigned)
		d.service(&b.Stats)
	}
	d.service(&fs.Aggregate)
	d.int(len(fs.ScaleEvents))
	d.int(len(fs.Windows))
	for _, v := range []int{fs.PeakActive, fs.FinalActive, fs.Arrivals, fs.Unroutable, fs.FailedOver, fs.Hedged} {
		d.int(v)
	}
	d.u64(fs.KernelEvents)
}

// checkService verifies the request identity the service documents:
// every offered request ends in exactly one of Completed, Shed, Failed or
// Lost, and the per-tenant accounts sum to the board's.
func checkService(where string, s *hll.ServiceStats) error {
	if got := s.Completed + s.Shed + s.Failures + s.Lost; got != s.Offered {
		return fmt.Errorf("%s: completed %d + shed %d + failed %d + lost %d = %d, offered %d",
			where, s.Completed, s.Shed, s.Failures, s.Lost, got, s.Offered)
	}
	offered := 0
	for name, t := range s.Tenants {
		offered += t.Offered
		if s.Lost == 0 && t.Completed+t.Shed+t.Failed != t.Offered {
			return fmt.Errorf("%s: tenant %s: completed %d + shed %d + failed %d != offered %d",
				where, name, t.Completed, t.Shed, t.Failed, t.Offered)
		}
	}
	if len(s.Tenants) > 0 && offered != s.Offered {
		return fmt.Errorf("%s: tenants offered %d, board offered %d", where, offered, s.Offered)
	}
	return nil
}

// checkFleet verifies the identity per board and summed over the fleet,
// and that the fleet front-end saw exactly the trace's arrivals.
func checkFleet(fs *cluster.FleetStats, arrivals int) error {
	if fs.Arrivals != arrivals {
		return fmt.Errorf("fleet saw %d arrivals, trace has %d", fs.Arrivals, arrivals)
	}
	offered, assigned := 0, 0
	for i := range fs.Boards {
		b := &fs.Boards[i]
		if err := checkService(fmt.Sprintf("board %d", b.Index), &b.Stats); err != nil {
			return err
		}
		offered += b.Stats.Offered
		assigned += b.Assigned
	}
	if err := checkService("fleet", &fs.Aggregate); err != nil {
		return err
	}
	if offered != fs.Aggregate.Offered {
		return fmt.Errorf("boards offered %d, aggregate %d", offered, fs.Aggregate.Offered)
	}
	if got := fs.Unroutable + offered - fs.Hedged; got != fs.Arrivals {
		return fmt.Errorf("unroutable %d + offered %d - hedged %d = %d, arrivals %d",
			fs.Unroutable, offered, fs.Hedged, got, fs.Arrivals)
	}
	if assigned != offered {
		return fmt.Errorf("router assigned %d, boards offered %d", assigned, offered)
	}
	return nil
}

// ledgerFile is the committed record of exact, host-independent results
// per workload and seed.
const ledgerFile = "hostbench/ledger.json"

// ledger is the parsed ledgerFile.
type ledger struct {
	// DefaultSeed is the committed seed (the seed EXPERIMENTS.md is
	// generated at); HeldOutSeed was not used while writing the
	// benchmark, so later gains can be re-checked on it.
	DefaultSeed uint64 `json:"default_seed"`
	HeldOutSeed uint64 `json:"held_out_seed"`
	// Workloads maps workload name → seed → entry.
	Workloads map[string]map[string]*ledgerEntry `json:"workloads"`
}

// ledgerEntry holds one workload's exact results over its ledger prefix
// (the first ops of the run, whose inputs depend only on the seed).
type ledgerEntry struct {
	// Digests are the per-op result digests of the prefix.
	Digests []string `json:"digests"`
	// Counts are the exact sim/hll/plan/... counts over the prefix.
	Counts map[string]float64 `json:"counts"`
	// AllocsPerOp is the allocation count per op measured over the
	// prefix when the entry was recorded (host-independent for a fixed
	// Go version; recorded, not gated).
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func loadLedger(root string) (*ledger, error) {
	data, err := os.ReadFile(filepath.Join(root, ledgerFile))
	if err != nil {
		return nil, fmt.Errorf("read ledger: %w", err)
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("parse %s: %w", ledgerFile, err)
	}
	return &l, nil
}

// entry returns the recorded entry for a workload and seed, or nil.
func (l *ledger) entry(workload string, seed uint64) *ledgerEntry {
	if l == nil {
		return nil
	}
	return l.Workloads[workload][strconv.FormatUint(seed, 10)]
}

// compareCounts lists every count that differs from the ledger. A change
// to a sim.* count is a model change, never a speed-up.
func compareCounts(want, got map[string]float64) []string {
	var diffs []string
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			diffs = append(diffs, fmt.Sprintf("%s: ledger %v, run %v", k, w, got[k]))
		}
	}
	sort.Strings(diffs)
	return diffs
}
