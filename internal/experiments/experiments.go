// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulation, one Scenario per artefact (the experiment
// index of DESIGN.md §4). Each scenario returns a Report holding the
// formatted rows the paper prints plus machine-readable series for the
// figures; the pdrbench command, the root benchmarks and the generated
// EXPERIMENTS.md all consume these scenarios so the numbers in all three
// always agree.
//
// Scenarios are registered at init in a package registry (see registry.go)
// and discovered by ID ("E1"…"E17", "A1"…"A5") or legacy alias ("tableI"…).
// Every scenario declares a fixed shard plan — independent work units that
// each run on a fresh Env — so a campaign can execute shards on any number
// of workers and merge by index to byte-identical output.
package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/bitstream"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/zynq"
)

// Report is one regenerated artefact.
type Report struct {
	// ID is the experiment id from DESIGN.md (e.g. "E1").
	ID string `json:"id"`
	// Title names the paper artefact (e.g. "Table I").
	Title string `json:"title"`
	// Header and Rows are the formatted table.
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Series carries figure data (CSV-renderable).
	Series []sim.Series `json:"series,omitempty"`
	// Notes records paper-vs-measured commentary for EXPERIMENTS.md.
	Notes []string `json:"notes,omitempty"`

	// SimEvents counts the simulation events fired producing this report
	// (board kernels for fleet scenarios, the env kernel otherwise);
	// WallMS is the wall-clock cost of computing it. Both feed the
	// pdrbench summary table only — excluded from the JSON encoding so
	// report files stay byte-identical across machines, worker counts,
	// and tracing on/off.
	SimEvents uint64  `json:"-"`
	WallMS    float64 `json:"-"`
}

// Render formats the report as an aligned text table. Rows may be ragged —
// wider or narrower than the header — and still align: column widths cover
// the widest row, and missing cells render empty.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	cols := len(r.Header)
	for _, row := range r.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, w := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// JSON renders the report with a stable field order and indentation, so
// byte-comparing two encodings is a valid equality check.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// EncodeJSON renders a suite of reports as one stable JSON document.
func EncodeJSON(reports []*Report) ([]byte, error) {
	out, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func mdEscape(s string) string { return strings.ReplaceAll(s, "|", "\\|") }

// Markdown renders the report as a GitHub-flavoured markdown section.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", mdEscape(r.ID), mdEscape(r.Title))
	cols := len(r.Header)
	for _, row := range r.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	cell := func(cells []string, i int) string {
		if i < len(cells) {
			return mdEscape(cells[i])
		}
		return ""
	}
	for i := 0; i < cols; i++ {
		fmt.Fprintf(&b, "| %s ", cell(r.Header, i))
	}
	b.WriteString("|\n")
	for i := 0; i < cols; i++ {
		b.WriteString("|---")
	}
	b.WriteString("|\n")
	for _, row := range r.Rows {
		for i := 0; i < cols; i++ {
			fmt.Fprintf(&b, "| %s ", cell(row, i))
		}
		b.WriteString("|\n")
	}
	if len(r.Series) > 0 {
		names := make([]string, len(r.Series))
		for i, s := range r.Series {
			names[i] = s.Name
		}
		fmt.Fprintf(&b, "\nFigure series (CSV via `pdrbench -csv`): %s.\n", strings.Join(names, ", "))
	}
	if len(r.Notes) > 0 {
		b.WriteString("\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
	}
	return b.String()
}

// MarkdownSuite renders a full EXPERIMENTS.md: a generation banner, the
// experiment index, then one section per report. The output is a pure
// function of (reports, cfg) — the cfg must be the one the reports were
// generated with, so the shard column matches the run — which lets CI diff
// the committed file against a fresh `pdrbench -md` run.
func MarkdownSuite(reports []*Report, cfg Config) string {
	var b strings.Builder
	b.WriteString("<!-- Generated by `go run ./cmd/pdrbench -md`. Do not edit by hand: CI regenerates this file and fails on drift. -->\n\n")
	b.WriteString("# EXPERIMENTS — regenerated paper artefacts\n\n")
	fmt.Fprintf(&b, "Every table and figure of the paper's evaluation, regenerated from the\nsimulation at seed %d. Each experiment shard runs on a freshly booted\nsimulated ZedBoard, so any schedule of the shards — sequential or a\nparallel campaign — produces exactly this file.\n\n", cfg.Seed)
	b.WriteString("| ID | Artefact | Shards |\n|----|----------|--------|\n")
	for _, r := range reports {
		shards := 1
		if s, ok := Lookup(r.ID); ok {
			shards = s.Shards(cfg)
		}
		fmt.Fprintf(&b, "| %s | %s | %d |\n", mdEscape(r.ID), mdEscape(r.Title), shards)
	}
	for _, r := range reports {
		b.WriteString("\n")
		b.WriteString(r.Markdown())
	}
	return b.String()
}

// Config parameterises a campaign run: the seed, the simulated board
// variant, and optional grid overrides consumed by the sweep/stress/power
// scenarios. The zero value is the paper's calibrated setup at seed 0.
// It is the single declaration of every campaign knob; Validate checks
// all of them before a campaign starts. The board's ambient temperature
// and thermal time constant belong to the platform profile (see the
// zedboard-hot and zedboard-slow-thermal presets), not to Config.
type Config struct {
	// Seed drives every stochastic model.
	Seed uint64
	// Platform names the registered platform profile the campaign's boards
	// are built as ("" ⇒ the default zedboard). See internal/platform.
	Platform string
	// Freqs overrides the frequency axis of the grid scenarios (E2, E3,
	// E4); nil keeps the paper grids.
	Freqs []float64
	// Temps overrides the temperature axis of the stress/power scenarios
	// (E3, E4); nil keeps the paper grids.
	Temps []float64
	// Rates overrides the offered-load axis (requests/s) of the saturation
	// scenario (E11); nil keeps the standard sweep grid.
	Rates []float64
	// FleetSizes overrides the fleet-size axis of the scale-out scenario
	// (E13); nil keeps the standard {1, 2, 4, 8} sweep. The shard plan
	// reshapes with the grid, independent of worker count.
	FleetSizes []int
	// Router names the routing policy the scale-out scenario (E13) serves
	// through ("" = least-outstanding; see cluster.RouterNames). The
	// routing scenario (E14) sweeps every policy regardless.
	Router string
	// ChaosCrashes, ChaosExcursions and ChaosGlitches override the chaos
	// scenario's (E15) fault storm: 0 keeps the standard storm, a negative
	// value removes that fault class entirely.
	ChaosCrashes    int
	ChaosExcursions int
	ChaosGlitches   int
	// TraceFile, when set, replays the diurnal scenario's (E16) arrival
	// stream from a versioned trace file (see workload.ImportTrace)
	// instead of generating it from the seed. The file's content becomes
	// part of the campaign configuration: identical bytes, identical run.
	TraceFile string
	// Scaler restricts the diurnal scenario (E16) to a single autoscaler
	// policy ("" compares every policy; see cluster.ScalerPolicies).
	Scaler string
	// FleetWorkers bounds the goroutines each fleet scenario's epoch
	// advance fans out over (≤ 1 = sequential). Purely a wall-clock knob:
	// fleet output is byte-identical at every setting, so it is not part
	// of the scientific configuration.
	FleetWorkers int
	// PlanWorkers bounds the planner scenario's (E17) tier-B simulation
	// fan-out (≤ 1 = sequential). Like FleetWorkers it is wall-clock
	// only: the search result is byte-identical at every setting.
	PlanWorkers int
	// PlanRate overrides the planner's offered load in req/s (0 = the
	// scenario default, 2200).
	PlanRate float64
	// PlanP99MS overrides the planner's p99 SLO in milliseconds (0 = the
	// scenario default, 12 ms).
	PlanP99MS float64
	// PlanShed overrides the planner's maximum shed fraction (0 = the
	// scenario default, 1%).
	PlanShed float64
	// Obs, when non-nil, collects deterministic spans and sim-time metrics
	// from the fleet scenarios (see internal/obs): each shard registers
	// its fleet under "<scenario>/<shard>" so the export is ordered by
	// key, not by campaign schedule. Like FleetWorkers it is not part of
	// the scientific configuration — report output is byte-identical with
	// or without it.
	Obs *obs.Tracer
}

// absoluteZeroC is the lowest temperature a grid may name.
const absoluteZeroC = -273.15

// Validate checks every knob of the configuration, including those the
// selected scenarios never read, so a malformed value fails before any
// shard starts:
//   - Platform names a registered profile ("" is the default);
//   - Freqs and Rates are finite and positive, Temps finite and not below
//     absolute zero, FleetSizes at least 1;
//   - Router and Scaler are "" or a name cluster.RouterNames /
//     cluster.ScalerPolicies lists;
//   - PlanRate, PlanP99MS and PlanShed are finite and non-negative, and
//     PlanShed is at most 1;
//   - TraceFile, when set, opens and imports as a trace.
func (c Config) Validate() error {
	if _, err := ProfileFor(c); err != nil {
		return err
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, f := range c.Freqs {
		if !finite(f) || f <= 0 {
			return fmt.Errorf("experiments: frequency %g MHz out of range (want finite, positive)", f)
		}
	}
	for _, r := range c.Rates {
		if !finite(r) || r <= 0 {
			return fmt.Errorf("experiments: rate %g req/s out of range (want finite, positive)", r)
		}
	}
	for _, t := range c.Temps {
		if !finite(t) || t < absoluteZeroC {
			return fmt.Errorf("experiments: temperature %g °C out of range (want finite, ≥ %g)", t, absoluteZeroC)
		}
	}
	for _, n := range c.FleetSizes {
		if n < 1 {
			return fmt.Errorf("experiments: fleet size %d out of range (want ≥ 1)", n)
		}
	}
	if c.Router != "" && !slices.Contains(cluster.RouterNames(), c.Router) {
		return fmt.Errorf("experiments: unknown router %q (want %s)", c.Router, strings.Join(cluster.RouterNames(), "|"))
	}
	if c.Scaler != "" && !slices.Contains(cluster.ScalerPolicies(), c.Scaler) {
		return fmt.Errorf("experiments: unknown scaler %q (want %s)", c.Scaler, strings.Join(cluster.ScalerPolicies(), "|"))
	}
	if !finite(c.PlanRate) || c.PlanRate < 0 {
		return fmt.Errorf("experiments: plan rate %g req/s out of range (want finite, ≥ 0)", c.PlanRate)
	}
	if !finite(c.PlanP99MS) || c.PlanP99MS < 0 {
		return fmt.Errorf("experiments: plan p99 %g ms out of range (want finite, ≥ 0)", c.PlanP99MS)
	}
	if !finite(c.PlanShed) || c.PlanShed < 0 || c.PlanShed > 1 {
		return fmt.Errorf("experiments: plan shed %g out of range (want a fraction in [0, 1])", c.PlanShed)
	}
	if c.TraceFile != "" {
		if _, err := readTrace(c.TraceFile); err != nil {
			return err
		}
	}
	return nil
}

// obsFleet registers one shard's fleet with the campaign tracer (nil —
// and therefore free — when tracing is off). The "<id>/<shard>" key
// orders the export deterministically whatever schedule ran the shards;
// the label names the Perfetto process group.
func obsFleet(cfg Config, id string, shard int, label string) *obs.FleetTrace {
	return cfg.Obs.Fleet(fmt.Sprintf("%s/%02d", id, shard), label)
}

// Env is a fresh measurement setup: platform, controller and the standard
// 529 KB partial bitstream, plus the campaign configuration that built it.
type Env struct {
	Platform   *zynq.Platform
	Controller *core.Controller
	Bitstream  *bitstream.Bitstream
	// Cfg is the configuration this Env was built from (grids, seed).
	Cfg Config
}

// NewEnv builds a booted platform with the standard test bitstream (the
// "fir128" ASP on RP1 — any ASP yields the same calibrated size).
func NewEnv(seed uint64) (*Env, error) {
	return NewEnvWith(Config{Seed: seed})
}

// ProfileFor resolves the configuration's platform profile.
func ProfileFor(cfg Config) (*platform.Profile, error) {
	prof, ok := platform.Lookup(cfg.Platform)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown board variant %q (registered platforms: %s)", cfg.Platform, platform.NameList())
	}
	return prof, nil
}

// NewEnvWith is NewEnv with the full campaign configuration applied.
func NewEnvWith(cfg Config) (*Env, error) {
	prof, err := ProfileFor(cfg)
	if err != nil {
		return nil, err
	}
	p, err := zynq.NewPlatform(zynq.Options{Seed: cfg.Seed, Profile: prof, FastThermal: true})
	if err != nil {
		return nil, err
	}
	p.ConfigureStatic()
	c := core.New(p)
	asp, err := workload.LibraryASP("fir128")
	if err != nil {
		return nil, err
	}
	bs, err := asp.Bitstream(p.Device, p.RPs[0])
	if err != nil {
		return nil, err
	}
	return &Env{Platform: p, Controller: c, Bitstream: bs, Cfg: cfg}, nil
}

// secondBitstream returns a second bitstream (the paper's SD card carried two).
func (e *Env) secondBitstream() (*bitstream.Bitstream, error) {
	asp, err := workload.LibraryASP("sha3")
	if err != nil {
		return nil, err
	}
	return asp.Bitstream(e.Platform.Device, e.Platform.RPs[0])
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func mhz(v float64) string { return fmt.Sprintf("%.0f", v) }

// validity renders the paper's CRC column.
func validity(ok bool) string {
	if ok {
		return "valid"
	}
	return "not valid"
}

// buildFor builds a standard-size bitstream for an arbitrary region (used
// by SecVI and the ablations).
func buildFor(p *zynq.Platform, rp fabric.Region, name string, seed uint64) (*bitstream.Bitstream, error) {
	asp := workload.ASP{Name: name, FillFraction: 0.55, Seed: seed}
	return bitstream.Build(p.Device, rp, name, asp.Frames(p.Device, rp))
}
