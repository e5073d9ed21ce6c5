package pdr

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// Re-exported campaign types.
type (
	// Report is one regenerated paper artefact.
	Report = experiments.Report
	// Scenario is a registered, discoverable experiment.
	Scenario = experiments.Scenario
)

// Scenarios lists every registered scenario in suite order (E1…E17,
// A1…A5).
func Scenarios() []Scenario { return experiments.All() }

// BoardVariant selects the simulated board build a campaign runs on. Every
// registered platform profile is a valid variant (see Platforms), so the
// value is simply the profile name; these constants name the built-ins.
type BoardVariant string

const (
	// ZedBoard is the calibrated paper setup: 25 °C ambient, fast
	// test-friendly thermal time constant.
	ZedBoard BoardVariant = "zedboard"
	// ZedBoardSlowThermal is the ZedBoard preset with the physical 2 s
	// thermal time constant.
	ZedBoardSlowThermal BoardVariant = "zedboard-slow-thermal"
	// ZedBoardHot is the ZedBoard preset in a 45 °C chamber
	// (harsh-environment deployments).
	ZedBoardHot BoardVariant = "zedboard-hot"
	// ZyboZ710 is the smaller Zybo Z7-10 board (xc7z010 fabric, ≈550 MB/s
	// memory plateau).
	ZyboZ710 BoardVariant = "zybo-z7-10"
	// ZC706 is the larger ZC706 board (xc7z045 fabric, ≈990 MB/s plateau,
	// faster speed grade).
	ZC706 BoardVariant = "zc706"
)

// ApplyBoardVariant resolves a variant into an experiments configuration —
// the same resolution a campaign performs. Exposed for tests and tooling
// that build experiment Envs directly.
func ApplyBoardVariant(v BoardVariant, cfg *experiments.Config) error {
	if _, err := experiments.ProfileFor(experiments.Config{Platform: string(v)}); err != nil {
		return err
	}
	cfg.Platform = string(v)
	return nil
}

// CampaignOption configures NewCampaign.
type CampaignOption func(*campaignConfig)

// campaignConfig is the experiments configuration plus the two knobs that
// shape the run rather than the results: the worker count and the scenario
// selection.
type campaignConfig struct {
	experiments.Config
	workers int
	ids     []string
}

// WithCampaignSeed fixes the deterministic seed (default 42, the suite's
// reference seed).
func WithCampaignSeed(seed uint64) CampaignOption {
	return func(c *campaignConfig) { c.Seed = seed }
}

// WithWorkers sets the worker-pool size. Each worker owns fully independent
// Systems (their own simulation kernels — the kernel itself stays
// single-threaded by design). n ≤ 0 means one worker per available CPU.
func WithWorkers(n int) CampaignOption {
	return func(c *campaignConfig) { c.workers = n }
}

// WithScenarios restricts the campaign to the given scenario IDs or aliases
// (default: the full registered suite).
func WithScenarios(ids ...string) CampaignOption {
	return func(c *campaignConfig) { c.ids = append([]string(nil), ids...) }
}

// WithBoardVariant selects the simulated board build.
func WithBoardVariant(v BoardVariant) CampaignOption {
	return func(c *campaignConfig) { c.Platform = string(v) }
}

// WithFrequencyGrid overrides the frequency axis of the grid scenarios
// (E2, E3, E4).
func WithFrequencyGrid(freqsMHz ...float64) CampaignOption {
	return func(c *campaignConfig) { c.Freqs = append([]float64(nil), freqsMHz...) }
}

// WithTemperatureGrid overrides the temperature axis of the stress/power
// scenarios (E3, E4).
func WithTemperatureGrid(tempsC ...float64) CampaignOption {
	return func(c *campaignConfig) { c.Temps = append([]float64(nil), tempsC...) }
}

// WithRateGrid overrides the offered-load axis (requests/s) of the
// saturation scenario (E11). The shard plan reshapes with the grid —
// deterministically, independent of worker count.
func WithRateGrid(ratesPerSec ...float64) CampaignOption {
	return func(c *campaignConfig) { c.Rates = append([]float64(nil), ratesPerSec...) }
}

// WithFleetGrid overrides the fleet-size axis of the scale-out scenario
// (E13). The shard plan reshapes with the grid — deterministically,
// independent of worker count.
func WithFleetGrid(sizes ...int) CampaignOption {
	return func(c *campaignConfig) { c.FleetSizes = append([]int(nil), sizes...) }
}

// WithFleetRouter selects the routing policy the scale-out scenario (E13)
// serves through (default least-outstanding; see Routers). The routing
// scenario (E14) sweeps every policy regardless.
func WithFleetRouter(name string) CampaignOption {
	return func(c *campaignConfig) { c.Router = name }
}

// WithChaosStorm reshapes the fault storm the chaos scenario (E15) replays:
// the number of board outages, thermal excursions and CRC glitch bursts.
// For each count, 0 keeps the standard storm and a negative value removes
// that fault class entirely. The storm stays seeded and deterministic —
// every routing policy still faces the identical event list.
func WithChaosStorm(crashes, excursions, glitches int) CampaignOption {
	return func(c *campaignConfig) {
		c.ChaosCrashes = crashes
		c.ChaosExcursions = excursions
		c.ChaosGlitches = glitches
	}
}

// WithTraceFile replays the diurnal scenario's (E16) arrival stream from a
// versioned trace file (see ExportTrace/ImportTrace) instead of generating
// it from the campaign seed. The file's bytes become part of the campaign
// configuration: identical file, identical run.
func WithTraceFile(path string) CampaignOption {
	return func(c *campaignConfig) { c.TraceFile = path }
}

// WithScalerPolicy restricts the diurnal scenario (E16) to a single
// autoscaler policy instead of comparing every policy (see
// ScalerPolicies).
func WithScalerPolicy(policy ScalerPolicy) CampaignOption {
	return func(c *campaignConfig) { c.Scaler = string(policy) }
}

// WithFleetWorkers bounds the goroutines each fleet scenario's per-epoch
// board advance fans out over, inside one campaign unit (it composes with
// WithWorkers, which parallelises across units). n ≤ 0 means one per
// available CPU. Purely a wall-clock knob: fleet output is byte-identical
// at every setting.
func WithFleetWorkers(n int) CampaignOption {
	return func(c *campaignConfig) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.FleetWorkers = n
	}
}

// WithPlanWorkers bounds the goroutines the planner scenario's (E17)
// tier-B verifying simulations fan out over. n ≤ 0 means one per available
// CPU. Purely a wall-clock knob: the search result is byte-identical at
// every setting.
func WithPlanWorkers(n int) CampaignOption {
	return func(c *campaignConfig) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.PlanWorkers = n
	}
}

// WithPlanRate overrides the offered load (requests/s) the planner
// scenario (E17) plans for (default 2200).
func WithPlanRate(ratePerSec float64) CampaignOption {
	return func(c *campaignConfig) { c.PlanRate = ratePerSec }
}

// WithSLO overrides the planner scenario's (E17) objective: the p99
// sojourn bound and the maximum tolerable shed fraction. A zero value
// keeps that component's default (p99 ≤ 12 ms, shed ≤ 1%); a negative
// one fails Run.
func WithSLO(p99 sim.Duration, maxShed float64) CampaignOption {
	return func(c *campaignConfig) {
		c.PlanP99MS = float64(p99) / float64(sim.Millisecond)
		c.PlanShed = maxShed
	}
}

// WithTracer attaches a deterministic tracing/metrics collector to the
// campaign's fleet scenarios (E13–E16): each shard's fleet records
// request spans, control-plane events and sim-time gauge series under a
// schedule-independent key. Tracing never perturbs the reports — they
// stay byte-identical with or without it — and the tracer's exports are
// byte-identical at every worker count. See NewTracer.
func WithTracer(t *Tracer) CampaignOption {
	return func(c *campaignConfig) { c.Obs = t }
}

// Campaign runs a set of registered scenarios, sharded across a pool of
// workers. Every shard is a pure function of the campaign configuration
// and runs on its own freshly booted System, and shard reports merge by
// index, so the output is bit-identical whatever the worker count — a
// parallel campaign is just a faster sequential one.
type Campaign struct {
	cfg campaignConfig
}

// NewCampaign builds a campaign; Run executes it.
func NewCampaign(opts ...CampaignOption) *Campaign {
	c := &Campaign{cfg: campaignConfig{Config: experiments.Config{Seed: 42}, workers: 1}}
	for _, fn := range opts {
		fn(&c.cfg)
	}
	return c
}

// CampaignResult is the deterministic outcome of a campaign run: the
// merged reports in selection order (suite order when no WithScenarios
// option was given; duplicate selections collapse to the first
// occurrence), plus the schedule's shape and wall-clock utilization.
type CampaignResult = experiments.CampaignResult

// Run executes the campaign. Every option is validated before any shard
// starts, whether or not the selected scenarios read it. Run honours ctx:
// cancellation aborts workers between measurement points and Run returns
// the context's error.
func (c *Campaign) Run(ctx context.Context) (*CampaignResult, error) {
	scens := experiments.All()
	if len(c.cfg.ids) > 0 {
		scens = scens[:0:0]
		seen := make(map[string]bool)
		for _, id := range c.cfg.ids {
			s, ok := experiments.Lookup(id)
			if !ok {
				return nil, fmt.Errorf("pdr: unknown scenario %q (want %s)", id, experiments.KeyList())
			}
			if seen[s.ID] {
				continue
			}
			seen[s.ID] = true
			scens = append(scens, s)
		}
	}
	return experiments.RunCampaign(ctx, scens, c.cfg.Config, c.cfg.workers)
}
