package experiments

import (
	"context"
	"fmt"
	"strings"
)

// Scenario is one registered, discoverable experiment: a shard runner plus
// an optional Summarize. A scenario is a pure function of (Config, shard
// index): every shard runs on its own fresh Env (its own simulation
// kernel), so shards can execute in any order on any number of workers.
// The campaign owns the rest — the shard-range check, merge order and
// series stitching (see mergeShards) — so the merged output is
// byte-identical regardless of the schedule.
type Scenario struct {
	// ID is the stable experiment id ("E1"…"E17", "A1"…"A5").
	ID string
	// Title names the paper artefact.
	Title string
	// Aliases are alternative lookup keys (the legacy pdrbench names).
	Aliases []string
	// Shards returns the fixed shard-plan size (≥1) for a configuration.
	// The plan never depends on worker count — that is what makes
	// parallel output bit-identical to sequential.
	Shards func(cfg Config) int
	// ShardConfig optionally rewrites the campaign configuration for one
	// shard before its Env is built (E10 selects a different platform per
	// shard). nil means every shard runs the campaign configuration.
	ShardConfig func(cfg Config, shard int) Config
	// Platforms optionally lists the platform profiles the scenario's
	// shards span (the cross-device scenarios sweep every board). nil
	// means the scenario runs on the campaign's selected platform.
	Platforms func(cfg Config) []string
	// Run executes one shard on a fresh Env built from EnvConfig(cfg,
	// shard) and returns its (partial) report. Single-shard scenarios
	// ignore the shard index. Register wraps it so a shard outside the
	// plan or a dead ctx returns an error before any work; Run must
	// honour ctx between measurement points.
	Run func(ctx context.Context, env *Env, shard int) (*Report, error)
	// Summarize optionally adds what is derived from the merged report —
	// knees, transposed grids, totals, comparisons — given the campaign
	// configuration. nil means the merged report is final.
	Summarize func(cfg Config, rep *Report) error
}

var (
	registry []Scenario
	regKey   = make(map[string]int)
)

// Register adds a scenario to the package registry. It panics on a
// duplicate ID/alias or a malformed scenario — registration happens at
// init, so a panic is a build-time programming error, not a runtime one.
// It wraps Run with the one shard-entry check every scenario shares.
func Register(s Scenario) {
	if s.ID == "" || s.Title == "" || s.Run == nil {
		panic(fmt.Sprintf("experiments: invalid scenario %+v", s))
	}
	if s.Shards == nil {
		s.Shards = func(Config) int { return 1 }
	}
	run, shards := s.Run, s.Shards
	s.Run = func(ctx context.Context, env *Env, shard int) (*Report, error) {
		if n := shards(env.Cfg); shard < 0 || shard >= n {
			return nil, fmt.Errorf("experiments: %s shard %d out of range [0, %d)", s.ID, shard, n)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return run(ctx, env, shard)
	}
	idx := len(registry)
	for _, key := range append([]string{s.ID}, s.Aliases...) {
		if _, dup := regKey[key]; dup {
			panic(fmt.Sprintf("experiments: duplicate scenario key %q", key))
		}
		regKey[key] = idx
	}
	registry = append(registry, s)
}

// Lookup finds a scenario by ID or alias.
func Lookup(key string) (Scenario, bool) {
	idx, ok := regKey[key]
	if !ok {
		return Scenario{}, false
	}
	return registry[idx], true
}

// All returns every registered scenario in registration order (E1…E17
// then A1…A5 — the order EXPERIMENTS.md presents them).
func All() []Scenario {
	out := make([]Scenario, len(registry))
	copy(out, registry)
	return out
}

// IDs returns the registered scenario IDs in registration order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.ID
	}
	return out
}

// KeyList renders "E1|E2|…" for usage strings.
func KeyList() string { return strings.Join(IDs(), "|") }

// RunSequential runs one scenario through RunCampaign on a single worker:
// the sequential reference path a parallel campaign must reproduce byte
// for byte. The root benchmarks and tests use it so every consumer of a
// scenario — the campaign, pdrbench, EXPERIMENTS.md, `go test -bench` —
// runs the same implementation and reports the same numbers.
func RunSequential(ctx context.Context, s Scenario, cfg Config) (*Report, error) {
	res, err := RunCampaign(ctx, []Scenario{s}, cfg, 1)
	if err != nil {
		return nil, err
	}
	return res.Reports[0], nil
}

// EnvConfig returns the configuration a given shard's Env must be built
// from: the campaign configuration, rewritten by ShardConfig when the
// scenario declares one.
func (s Scenario) EnvConfig(cfg Config, shard int) Config {
	if s.ShardConfig == nil {
		return cfg
	}
	return s.ShardConfig(cfg, shard)
}

// single adapts a legacy whole-artefact runner to the shard interface.
func single(fn func(*Env) (*Report, error)) func(context.Context, *Env, int) (*Report, error) {
	return func(_ context.Context, env *Env, _ int) (*Report, error) { return fn(env) }
}

// segBounds splits n items into k contiguous segments and returns the
// half-open bounds of segment i. Segment sizes differ by at most one and
// depend only on (n, k) — part of the fixed shard plan.
func segBounds(n, k, i int) (lo, hi int) {
	base, rem := n/k, n%k
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

func init() {
	Register(Scenario{
		ID:      "E1",
		Title:   "Table I — throughput vs. frequency when over-clocking",
		Aliases: []string{"tableI"},
		Run:     single(TableI),
	})
	Register(Scenario{
		ID:        "E2",
		Title:     "Fig. 5 — throughput vs. frequency",
		Aliases:   []string{"fig5"},
		Shards:    fig5Shards,
		Run:       fig5Shard,
		Summarize: fig5Summarize,
	})
	Register(Scenario{
		ID:        "E3",
		Title:     "Sec. IV-A — temperature stress (pass = CRC valid)",
		Aliases:   []string{"stress"},
		Shards:    stressShards,
		Run:       stressShard,
		Summarize: stressSummarize,
	})
	Register(Scenario{
		ID:        "E4",
		Title:     "Fig. 6 — P_PDR [W] vs. frequency at die temperatures",
		Aliases:   []string{"fig6"},
		Shards:    fig6Shards,
		Run:       fig6Shard,
		Summarize: fig6Summarize,
	})
	Register(Scenario{
		ID:      "E5",
		Title:   "Table II — power efficiency for over-clocking at 40 °C",
		Aliases: []string{"tableII"},
		Run:     single(TableII),
	})
	Register(Scenario{
		ID:      "E6",
		Title:   "Table III — comparison with related work",
		Aliases: []string{"tableIII"},
		Run:     single(TableIII),
	})
	Register(Scenario{
		ID:      "E7",
		Title:   "Sec. VI — proposed SRAM-based PDR",
		Aliases: []string{"secVI"},
		Run:     single(SecVI),
	})
	Register(Scenario{
		ID:      "E8",
		Title:   "latency-claim consistency check (abstract vs. Table I)",
		Aliases: []string{"claims"},
		Run:     single(LatencyClaims),
	})
	Register(Scenario{
		ID:        "E9",
		Title:     "Fig. 1 framework under Poisson load (sharded trace segments)",
		Aliases:   []string{"poisson"},
		Shards:    poissonShards,
		Run:       poissonShard,
		Summarize: poissonSummarize,
	})
	Register(Scenario{
		ID:          "E10",
		Title:       xplatTitle,
		Aliases:     []string{"xplat"},
		Shards:      xplatShards,
		ShardConfig: xplatShardConfig,
		Platforms:   boardNames,
		Run:         xplatShard,
		Summarize:   xplatSummarize,
	})
	Register(Scenario{
		ID:          "E11",
		Title:       satTitle,
		Aliases:     []string{"saturate"},
		Shards:      satShards,
		ShardConfig: satShardConfig,
		Platforms:   boardNames,
		Run:         satShard,
		Summarize:   satSummarize,
	})
	Register(Scenario{
		ID:        "E12",
		Title:     schedTitle,
		Aliases:   []string{"sched"},
		Shards:    schedShards,
		Run:       schedShard,
		Summarize: schedSummarize,
	})
	Register(Scenario{
		ID:        "E13",
		Title:     scaleTitle,
		Aliases:   []string{"scaleout"},
		Shards:    scaleShards,
		Platforms: boardNames,
		Run:       scaleShard,
		Summarize: scaleSummarize,
	})
	Register(Scenario{
		ID:        "E14",
		Title:     routeTitle,
		Aliases:   []string{"route"},
		Shards:    routeShards,
		Run:       routeShard,
		Summarize: routeSummarize,
	})
	Register(Scenario{
		ID:        "E15",
		Title:     chaosTitle,
		Aliases:   []string{"chaos"},
		Shards:    chaosShards,
		Run:       chaosShard,
		Summarize: chaosSummarize,
	})
	Register(Scenario{
		ID:        "E16",
		Title:     diurnalTitle,
		Aliases:   []string{"diurnal"},
		Shards:    diurnalShards,
		Run:       diurnalShard,
		Summarize: diurnalSummarize,
	})
	Register(Scenario{
		ID:      "E17",
		Title:   planTitle,
		Aliases: []string{"plan"},
		Run:     planShard,
	})
	Register(Scenario{
		ID:      "A1",
		Title:   "CRC read-back overhead on the foreground transfer",
		Aliases: []string{"crc"},
		Run:     single(AblationCRC),
	})
	Register(Scenario{
		ID:      "A2",
		Title:   "what limits the plateau at 280 MHz",
		Aliases: []string{"knee"},
		Run:     single(AblationKnee),
	})
	Register(Scenario{
		ID:      "A3",
		Title:   "RobustGuard recovery cost after an over-clock failure",
		Aliases: []string{"guard"},
		Run:     single(AblationRobustGuard),
	})
	Register(Scenario{
		ID:      "A4",
		Title:   "reconfiguration under accelerator memory traffic (280 MHz)",
		Aliases: []string{"contention"},
		Run:     single(AblationContention),
	})
	Register(Scenario{
		ID:      "A5",
		Title:   "SEU scrubbing vs full reload (200 MHz)",
		Aliases: []string{"scrub"},
		Run:     single(AblationScrub),
	})
}
