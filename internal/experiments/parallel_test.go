package experiments

import (
	"context"
	"testing"

	"repro/internal/workpool"
)

// TestFleetScenariosWorkerCountEquality pins the parallel fleet engine at
// the scenario level: every fleet scenario (E13 scale-out, E14 routing,
// E15 chaos, E16 diurnal) must emit byte-identical reports whether the
// campaign runs on a budget of 1 or on 4 × units, which gives each
// shard's per-epoch board advance 4 goroutines. The worker budget is a
// wall-clock knob, never a scientific one.
func TestFleetScenariosWorkerCountEquality(t *testing.T) {
	for _, tc := range []struct {
		id  string
		cfg Config
	}{
		{"E13", Config{Seed: 42, FleetSizes: []int{2}}},
		{"E14", Config{Seed: 42}},
		{"E15", Config{Seed: 42}},
		{"E16", Config{Seed: 42}},
	} {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			s, ok := Lookup(tc.id)
			if !ok {
				t.Fatalf("%s not registered", tc.id)
			}
			run := func(budget int) string {
				res, err := RunCampaign(context.Background(), []Scenario{s}, tc.cfg, budget)
				if err != nil {
					t.Fatal(err)
				}
				if budget > 1 && res.Inner != 4 {
					t.Fatalf("budget %d over %d units gave inner %d, want 4", budget, res.Units, res.Inner)
				}
				out, err := res.Reports[0].JSON()
				if err != nil {
					t.Fatal(err)
				}
				return string(out)
			}
			if seq, par := run(1), run(4*s.Shards(tc.cfg)); seq != par {
				t.Errorf("%s report changes with 4 fleet workers per shard", tc.id)
			}
		})
	}
}

// TestWorkerBudgetNeverOversubscribes pins the campaign's top-down split:
// over the whole budget × units grid the shard pool never outnumbers the
// units, every shard gets at least one inner worker, and the two levels
// together never exceed the budget. The named cases are the widths the
// CI equality smokes rely on for a 4-wide inner fan-out.
func TestWorkerBudgetNeverOversubscribes(t *testing.T) {
	for budget := 1; budget <= 64; budget++ {
		for units := 1; units <= 100; units++ {
			shard, inner := workpool.Split(budget, units)
			if shard > units || inner < 1 || shard*inner > budget {
				t.Fatalf("budget %d, units %d: shard %d × inner %d", budget, units, shard, inner)
			}
		}
	}
	for _, tc := range []struct {
		id     string
		budget int
	}{
		{"E13", 40},
		{"E14", 16},
		{"E17", 4},
	} {
		s, ok := Lookup(tc.id)
		if !ok {
			t.Fatalf("%s not registered", tc.id)
		}
		units := s.Shards(Config{})
		if _, inner := workpool.Split(tc.budget, units); inner != 4 {
			t.Errorf("%s at budget %d (%d units): inner %d, want 4", tc.id, tc.budget, units, inner)
		}
	}
	// RunCampaign records the split it ran: E8 is analytic and cheap.
	s, _ := Lookup("E8")
	res, err := RunCampaign(context.Background(), []Scenario{s}, Config{Seed: 42}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers*res.Inner > 8 || res.Inner < 1 {
		t.Errorf("E8 at budget 8: %d workers × %d inner", res.Workers, res.Inner)
	}
}
