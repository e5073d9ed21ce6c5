package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/workpool"
)

// CampaignResult is the deterministic outcome of a campaign run.
type CampaignResult struct {
	// Reports holds one merged report per selected scenario, in selection
	// order.
	Reports []*Report
	// Seed is the campaign seed the reports were generated at.
	Seed uint64
	// Workers and Units record the executed schedule's shape (they do not
	// affect Reports).
	Workers int
	Units   int
	// Pool is the campaign worker pool's wall-clock utilization, one entry
	// per worker (units claimed, busy time); Elapsed is the whole run's
	// wall clock. Schedule facts for profiling — like Workers and Units
	// they never affect Reports or their JSON encoding.
	Pool    []workpool.WorkerCount
	Elapsed time.Duration

	// cfg is the campaign configuration, kept so Markdown's shard column
	// reflects grid/variant overrides.
	cfg Config
}

// Render formats every report as an aligned text table.
func (r *CampaignResult) Render() string {
	var b strings.Builder
	for _, rep := range r.Reports {
		b.WriteString(rep.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the reports as one stable JSON document.
func (r *CampaignResult) JSON() ([]byte, error) { return EncodeJSON(r.Reports) }

// Markdown renders the reports as the EXPERIMENTS.md document.
func (r *CampaignResult) Markdown() string { return MarkdownSuite(r.Reports, r.cfg) }

type campaignUnit struct {
	scen  int
	shard int
}

// RunCampaign is the one shard runner: it validates cfg, then executes
// every shard of the given scenarios on a pool of workers, each shard on a
// fresh Env built from the scenario's EnvConfig, and merges each
// scenario's shard reports in index order. The shard plan is fixed before
// any worker starts, so the reports are byte-identical at every worker
// count. workers ≤ 0 means one per available CPU. It honours ctx:
// cancellation aborts workers between measurement points and RunCampaign
// returns the context's error.
func RunCampaign(ctx context.Context, scens []Scenario, cfg Config, workers int) (*CampaignResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// The fixed shard plan: one unit per (scenario, shard), independent of
	// the worker count.
	var units []campaignUnit
	parts := make([][]*Report, len(scens))
	for si, s := range scens {
		n := s.Shards(cfg)
		parts[si] = make([]*Report, n)
		for k := 0; k < n; k++ {
			units = append(units, campaignUnit{scen: si, shard: k})
		}
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(units))

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	t0 := time.Now()
	pool := &workpool.Counters{}
	errs := make([]error, len(units))
	workpool.RunCounted(len(units), workers, pool, func(i int) {
		u := units[i]
		if err := runCtx.Err(); err != nil {
			errs[i] = err
			return
		}
		u0 := time.Now()
		env, err := NewEnvWith(scens[u.scen].EnvConfig(cfg, u.shard))
		if err != nil {
			errs[i] = err
			cancel()
			return
		}
		rep, err := scens[u.scen].Run(runCtx, env, u.shard)
		if err != nil {
			errs[i] = err
			cancel()
			return
		}
		// Shards that run on their own simulators (fleet boards) set
		// SimEvents themselves; the env kernel covers the rest.
		rep.SimEvents += env.Platform.Kernel.Fired()
		rep.WallMS = float64(time.Since(u0)) / float64(time.Millisecond)
		parts[u.scen][u.shard] = rep
	})

	// Deterministic error selection: the lowest-index real failure wins;
	// bare cancellations (a worker aborted because another unit failed, or
	// the caller cancelled) only surface when nothing else went wrong.
	var cancelled error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelled == nil {
				cancelled = err
			}
			continue
		}
		return nil, fmt.Errorf("experiments: campaign %s shard %d: %w", scens[units[i].scen].ID, units[i].shard, err)
	}
	if cancelled != nil {
		return nil, cancelled
	}

	res := &CampaignResult{Seed: cfg.Seed, Workers: workers, Units: len(units), cfg: cfg}
	for si, s := range scens {
		rep := parts[si][0]
		if s.Merge != nil {
			var err error
			rep, err = s.Merge(cfg, parts[si])
			if err != nil {
				return nil, fmt.Errorf("experiments: campaign %s merge: %w", s.ID, err)
			}
			// Merge builds a fresh report from the parts' tables; the
			// profiling tallies fold in here (sim events sum, wall clock
			// sums the shards' costs even when they overlapped on workers).
			for _, p := range parts[si] {
				rep.SimEvents += p.SimEvents
				rep.WallMS += p.WallMS
			}
		}
		res.Reports = append(res.Reports, rep)
	}
	res.Pool = pool.Snapshot()
	res.Elapsed = time.Since(t0)
	return res, nil
}
