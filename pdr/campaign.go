package pdr

import (
	"context"
	"fmt"

	"repro/internal/experiments"
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

// CampaignOption configures NewCampaign.
type CampaignOption func(*campaignConfig)

// campaignConfig is the experiments configuration plus the two knobs that
// shape the run rather than the results: the worker budget and the scenario
// selection. err is the first WithParam failure, returned by Run.
type campaignConfig struct {
	experiments.Config
	workers int
	ids     []string
	err     error
}

// WithCampaignSeed fixes the deterministic seed (default 42, the suite's
// reference seed).
func WithCampaignSeed(seed uint64) CampaignOption {
	return func(c *campaignConfig) { c.Seed = seed }
}

// WithWorkers sets the campaign's worker budget: the most goroutines the
// run keeps busy at once. The campaign splits it top-down before any
// shard starts: min(n, units) shards run at once, and each shard's fleet
// epochs (E13–E16) or planner simulations (E17) fan out over the rest,
// max(1, n/shards), so the levels never multiply past n. Each shard owns
// fully independent Systems (their own simulation kernels — the kernel
// itself stays single-threaded by design), and output is byte-identical
// at every budget. n ≤ 0 means one per available CPU.
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

// WithParam sets one scenario knob by name from its text form. The names
// and value syntax are those of pdrbench's scenario-knob flags, without
// the dash (`pdrbench -h` lists each with its default), for example
// WithParam("fleet", "1,2,4") or WithParam("plan-rate", "2800").
// An unknown name or a value that does not parse fails Run before any
// shard starts, as does a value out of the knob's range.
func WithParam(name, value string) CampaignOption {
	return func(c *campaignConfig) {
		if err := c.Set(name, value); err != nil && c.err == nil {
			c.err = err
		}
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
	if c.cfg.err != nil {
		return nil, c.cfg.err
	}
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
