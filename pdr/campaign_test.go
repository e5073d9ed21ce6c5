package pdr_test

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/pdr"
)

// TestCampaignParallelBitIdentical is the API-level determinism contract:
// the same campaign on 1 and on 3 workers must render, encode and note
// byte-identically. A cheap scenario subset keeps the unit fast; the root
// determinism test covers the full suite.
func TestCampaignParallelBitIdentical(t *testing.T) {
	run := func(workers int) *pdr.CampaignResult {
		res, err := pdr.NewCampaign(
			pdr.WithCampaignSeed(42),
			pdr.WithWorkers(workers),
			pdr.WithScenarios("E1", "E8", "A3"),
		).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(3)
	if seq.Render() != par.Render() {
		t.Errorf("parallel render differs from sequential:\n%s\nvs\n%s", seq.Render(), par.Render())
	}
	j1, err := seq.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := par.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Error("parallel JSON differs from sequential")
	}
}

func TestCampaignShardedScenario(t *testing.T) {
	res, err := pdr.NewCampaign(
		pdr.WithCampaignSeed(42),
		pdr.WithWorkers(4),
		pdr.WithScenarios("E2"),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Units != 3 {
		t.Errorf("E2 shard plan = %d units, want 3", res.Units)
	}
	rep := res.Reports[0]
	if len(rep.Rows) != 21 {
		t.Errorf("fig5 rows = %d, want 21", len(rep.Rows))
	}
	if len(rep.Series) != 1 || len(rep.Series[0].Points) != 21 {
		t.Errorf("fig5 series malformed: %+v", rep.Series)
	}
	// The merged curve must stay monotone in frequency: shard boundaries
	// may not reorder points.
	pts := rep.Series[0].Points
	for i := 1; i < len(pts); i++ {
		if pts[i].X <= pts[i-1].X {
			t.Errorf("series X not increasing at %d: %v then %v", i, pts[i-1].X, pts[i].X)
		}
	}
}

func TestCampaignUnknownScenario(t *testing.T) {
	_, err := pdr.NewCampaign(pdr.WithScenarios("E42")).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("err = %v", err)
	}
}

func TestCampaignUnknownBoardVariant(t *testing.T) {
	_, err := pdr.NewCampaign(
		pdr.WithScenarios("E8"),
		pdr.WithBoardVariant("zedboard-quantum"),
	).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unknown board variant") {
		t.Errorf("err = %v", err)
	}
}

func TestCampaignBoardVariantHot(t *testing.T) {
	// The hot-chamber variant boots at 45 °C ambient; E8 is analytic and
	// cheap, so this just proves the variant plumbs through to the Env.
	res, err := pdr.NewCampaign(
		pdr.WithScenarios("E8"),
		pdr.WithBoardVariant(pdr.ZedBoardHot),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Reports[0].ID != "E8" {
		t.Errorf("reports = %+v", res.Reports)
	}
}

// TestCampaignBoardVariantSlowThermal proves the slow-thermal preset plumbs
// all the way through: the variant resolves to the registered profile, the
// Env is built from it, and the die really carries the physical 2 s time
// constant (the fast test-friendly shortcut must NOT win).
func TestCampaignBoardVariantSlowThermal(t *testing.T) {
	var cfg experiments.Config
	if err := pdr.ApplyBoardVariant(pdr.ZedBoardSlowThermal, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Platform != string(pdr.ZedBoardSlowThermal) {
		t.Fatalf("variant set Platform = %q", cfg.Platform)
	}
	env, err := experiments.NewEnvWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := env.Platform.Profile.Name; got != "zedboard-slow-thermal" {
		t.Errorf("env profile = %q", got)
	}
	if got := env.Platform.Die.TimeConstant(); got != 2*sim.Second {
		t.Errorf("die time constant = %v, want the physical 2s", got)
	}
	// The default build keeps the fast thermal shortcut.
	base, err := experiments.NewEnvWith(experiments.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := base.Platform.Die.TimeConstant(); got != 50*sim.Millisecond {
		t.Errorf("default die time constant = %v, want the fast 50ms", got)
	}
	// End to end: a campaign on the preset runs (E8 is analytic and cheap).
	res, err := pdr.NewCampaign(
		pdr.WithScenarios("E8"),
		pdr.WithBoardVariant(pdr.ZedBoardSlowThermal),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Reports[0].ID != "E8" {
		t.Errorf("reports = %+v", res.Reports)
	}
}

// TestCampaignOnOtherSilicon runs a real (non-analytic) scenario on the two
// new boards through the public campaign API.
func TestCampaignOnOtherSilicon(t *testing.T) {
	for _, v := range []pdr.BoardVariant{pdr.ZyboZ710, pdr.ZC706} {
		res, err := pdr.NewCampaign(
			pdr.WithCampaignSeed(42),
			pdr.WithScenarios("E1"),
			pdr.WithBoardVariant(v),
		).Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if len(res.Reports) != 1 || len(res.Reports[0].Rows) == 0 {
			t.Errorf("%s: empty E1 report", v)
		}
	}
}

func TestCampaignGridOverride(t *testing.T) {
	res, err := pdr.NewCampaign(
		pdr.WithCampaignSeed(42),
		pdr.WithWorkers(2),
		pdr.WithScenarios("E3"),
		pdr.WithFrequencyGrid(100, 200),
		pdr.WithTemperatureGrid(40, 100),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Units != 2 {
		t.Errorf("override shard plan = %d units, want one per temperature (2)", res.Units)
	}
	rep := res.Reports[0]
	if len(rep.Rows) != 2 || len(rep.Rows[0]) != 3 {
		t.Errorf("stress table shape = %dx%d, want 2x3", len(rep.Rows), len(rep.Rows[0]))
	}
}

func TestCampaignCancelledBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := pdr.NewCampaign(pdr.WithScenarios("E1")).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestCampaignCancelledMidRun cancels while workers are inside the stress
// matrix; the campaign must stop between measurement points and surface the
// cancellation rather than a partial result.
func TestCampaignCancelledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	res, err := pdr.NewCampaign(
		pdr.WithCampaignSeed(42),
		pdr.WithWorkers(2),
	).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v (res = %v), want context.Canceled", err, res != nil)
	}
}

func TestScenariosListing(t *testing.T) {
	ids := map[string]bool{}
	for _, s := range pdr.Scenarios() {
		ids[s.ID] = true
	}
	for _, want := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "A1", "A2", "A3", "A4", "A5"} {
		if !ids[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestCampaignFleetGridOverride(t *testing.T) {
	res, err := pdr.NewCampaign(
		pdr.WithCampaignSeed(42),
		pdr.WithScenarios("E13"),
		pdr.WithFleetGrid(1, 2),
		pdr.WithFleetRouter("affinity"),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 2 compositions × (2 sizes + the autoscaled point).
	if res.Units != 6 {
		t.Errorf("units = %d, want 6", res.Units)
	}
	rep := res.Reports[0]
	if rep.ID != "E13" || len(rep.Rows) != 6 {
		t.Errorf("report %s has %d rows, want 6", rep.ID, len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[2] != "affinity" {
			t.Errorf("router column = %q, want the WithFleetRouter override", row[2])
		}
	}
	// An unknown router surfaces through the shard error path, and a
	// non-positive fleet size errors instead of panicking a worker.
	if _, err := pdr.NewCampaign(
		pdr.WithScenarios("E13"),
		pdr.WithFleetGrid(1),
		pdr.WithFleetRouter("nope"),
	).Run(context.Background()); err == nil || !strings.Contains(err.Error(), "unknown router") {
		t.Errorf("unknown router accepted (err = %v)", err)
	}
	if _, err := pdr.NewCampaign(
		pdr.WithScenarios("E13"),
		pdr.WithFleetGrid(-1),
	).Run(context.Background()); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("negative fleet size accepted (err = %v)", err)
	}
}

func TestCampaignRateGridOverride(t *testing.T) {
	res, err := pdr.NewCampaign(
		pdr.WithCampaignSeed(42),
		pdr.WithScenarios("E11"),
		pdr.WithRateGrid(50, 400),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 2 rates → 1 segment × 3 boards.
	if res.Units != 3 {
		t.Errorf("units = %d, want 3", res.Units)
	}
	rep := res.Reports[0]
	if rep.ID != "E11" || len(rep.Rows) != 12 {
		t.Errorf("report %s has %d rows, want 12 (3 boards × 2 rates × 2 modes)", rep.ID, len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[1] != "50" && row[1] != "400" {
			t.Errorf("unexpected rate in row: %v", row)
		}
	}
}

// TestCampaignRejectsMalformedOptionsUpFront: every malformed campaign
// option fails Run before any shard starts — with a nil result and no
// shard in the error — both when a selected scenario reads the knob and
// when none does (E8 reads none of them).
func TestCampaignRejectsMalformedOptionsUpFront(t *testing.T) {
	absent := filepath.Join(t.TempDir(), "absent.json")
	cases := []struct {
		name   string
		opt    pdr.CampaignOption
		reader string
	}{
		{"negative plan rate", pdr.WithPlanRate(-1), "E17"},
		{"zero frequency", pdr.WithFrequencyGrid(0), "E2"},
		{"NaN frequency", pdr.WithFrequencyGrid(math.NaN()), "E2"},
		{"negative rate", pdr.WithRateGrid(-5), "E11"},
		{"unknown scaler", pdr.WithScalerPolicy("bogus"), "E16"},
		{"unknown router", pdr.WithFleetRouter("bogus"), "E13"},
		{"negative fleet size", pdr.WithFleetGrid(-1), "E13"},
		{"temperature below absolute zero", pdr.WithTemperatureGrid(-400), "E3"},
		{"absent trace file", pdr.WithTraceFile(absent), "E16"},
	}
	for _, tc := range cases {
		for _, scen := range []string{tc.reader, "E8"} {
			res, err := pdr.NewCampaign(pdr.WithScenarios(scen), tc.opt).Run(context.Background())
			if err == nil {
				t.Errorf("%s with %s: accepted", tc.name, scen)
				continue
			}
			if res != nil || strings.Contains(err.Error(), "shard") {
				t.Errorf("%s with %s: failed inside a shard, not up front (res = %v): %v", tc.name, scen, res != nil, err)
			}
		}
	}
}
