package plan

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workpool"
)

// testSpace is a reduced candidate space that keeps every structural
// property of the default one (two frequencies, multiple sizes, a real
// frontier) while keeping tier-B simulations cheap.
func testSpace() Space {
	return Space{
		Cycles:      [][]string{{"zedboard"}},
		MaxBoards:   3,
		Freqs:       []float64{100, 200},
		Routers:     []string{"round-robin", "least-outstanding"},
		CacheImages: []int{0, 8},
	}
}

// testOptions plans a small, fast question over the reduced space.
func testOptions() Options {
	return Options{
		Workload: Workload{
			Seed:       7,
			RatePerSec: 600,
			Requests:   64,
			Deadline:   20 * sim.Millisecond,
		},
		SLO:   SLO{P99: 15 * sim.Millisecond, MaxShed: 0.01},
		Space: testSpace(),
	}
}

func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	var ref *Result
	for _, workers := range []int{1, 4, 8} {
		o := testOptions()
		o.Workers = workers
		res, err := Search(context.Background(), o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.SimsRun == 0 || res.Chosen == nil {
			t.Fatalf("workers=%d: degenerate search (sims=%d chosen=%v)", workers, res.SimsRun, res.Chosen)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d: result differs from sequential reference", workers)
		}
	}
}

// TestVerifyBatchSplitWithinBudget pins Search's split of its worker
// budget over one verification batch: concurrent simulations times each
// one's fleet workers never exceed Workers, and Workers ≤ 1 stays
// sequential at both levels.
func TestVerifyBatchSplitWithinBudget(t *testing.T) {
	if fan, fleet := workpool.Split(4, 3); fan != 3 || fleet != 1 || fan*fleet > 4 {
		t.Errorf("Workers 4, batch 3: fan %d × fleet %d", fan, fleet)
	}
	if fan, fleet := workpool.Split(4, 1); fan*fleet != 4 {
		t.Errorf("Workers 4, batch 1: fan %d × fleet %d, want the whole budget", fan, fleet)
	}
	for _, workers := range []int{-1, 0, 1} {
		if fan, fleet := workpool.Split(workers, 3); fan != 1 || fleet != 1 {
			t.Errorf("Workers %d, batch 3: fan %d × fleet %d, want sequential", workers, fan, fleet)
		}
	}
}

func TestSearchMemoWarmRun(t *testing.T) {
	memo := NewMemo()
	run := func() *Result {
		o := testOptions()
		o.Memo = memo
		res, err := Search(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run()
	if cold.SimsRun == 0 || cold.MemoHits != 0 {
		t.Fatalf("cold run: sims=%d memoHits=%d, want fresh sims and no hits", cold.SimsRun, cold.MemoHits)
	}
	if memo.Len() != cold.SimsRun {
		t.Fatalf("memo holds %d entries after %d sims", memo.Len(), cold.SimsRun)
	}
	warm := run()
	if warm.SimsRun != 0 {
		t.Errorf("warm run ran %d fresh sims, want 0", warm.SimsRun)
	}
	if warm.MemoHits != cold.SimsRun {
		t.Errorf("warm run memo hits = %d, want %d", warm.MemoHits, cold.SimsRun)
	}
	// Apart from the provenance fields (Memoized, SimsRun, MemoHits), the
	// warm result must be DeepEqual to the cold one: the cache changes
	// where answers come from, never what they are.
	norm := func(r *Result) *Result {
		cp := *r
		cp.SimsRun, cp.MemoHits = 0, 0
		cp.Verified = append([]Verified(nil), r.Verified...)
		for i := range cp.Verified {
			cp.Verified[i].Memoized = false
		}
		clear := func(v *Verified) *Verified {
			if v == nil {
				return nil
			}
			c := *v
			c.Memoized = false
			return &c
		}
		cp.Chosen, cp.StockBest, cp.OverBest = clear(r.Chosen), clear(r.StockBest), clear(r.OverBest)
		return &cp
	}
	if !reflect.DeepEqual(norm(cold), norm(warm)) {
		t.Error("warm (memoized) result differs from cold run beyond provenance fields")
	}
}

func TestSearchRespectsSimBudget(t *testing.T) {
	o := testOptions()
	o.MaxSims = 1
	res, err := Search(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimsRun > 1 {
		t.Errorf("SimsRun = %d with MaxSims 1", res.SimsRun)
	}
}

func TestSearchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, testOptions()); err == nil {
		t.Error("cancelled search returned nil error")
	}
}

func TestKeyDiscriminatesAndIgnoresWorkers(t *testing.T) {
	c := Candidate{Boards: []cluster.BoardSpec{{Platform: "zedboard"}}, FreqMHz: 200, Router: "round-robin"}
	w := Workload{Seed: 1, RatePerSec: 600, Requests: 64, ASPs: DefaultASPs(), Deadline: 20 * sim.Millisecond}
	base := Key(c, w)
	perturb := []struct {
		name string
		c    Candidate
		w    Workload
	}{
		{"seed", c, func() Workload { w2 := w; w2.Seed = 2; return w2 }()},
		{"rate", c, func() Workload { w2 := w; w2.RatePerSec = 601; return w2 }()},
		{"freq", func() Candidate { c2 := c; c2.FreqMHz = 100; return c2 }(), w},
		{"router", func() Candidate { c2 := c; c2.Router = "weighted"; return c2 }(), w},
		{"cache", func() Candidate { c2 := c; c2.CacheImages = 8; return c2 }(), w},
		{"boards", Candidate{Boards: []cluster.BoardSpec{{Platform: "zedboard"}, {Platform: "zc706"}},
			FreqMHz: 200, Router: "round-robin"}, w},
	}
	for _, p := range perturb {
		if Key(p.c, p.w) == base {
			t.Errorf("perturbing %s did not change the memo key", p.name)
		}
	}
	// The key is pure: recomputing it gives the same digest.
	if Key(c, w) != base {
		t.Error("Key is not deterministic")
	}
}

func TestFrontier(t *testing.T) {
	preds := []Prediction{
		{Watts: 1, P99US: 100, Shed: 0},   // frontier (cheapest)
		{Watts: 2, P99US: 50, Shed: 0},    // frontier (faster, dearer)
		{Watts: 2, P99US: 100, Shed: 0},   // dominated by [0]
		{Watts: 3, P99US: 50, Shed: 0.01}, // dominated by [1]
		{Watts: 1, P99US: 100, Shed: 0},   // duplicate of [0]: stays (ties survive)
	}
	got := Frontier(preds)
	want := []int{0, 1, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Frontier = %v, want %v", got, want)
	}
}

func TestCandidateLabel(t *testing.T) {
	c := Candidate{
		Boards:  []cluster.BoardSpec{{Platform: "zybo-z7-10"}, {Platform: "zybo-z7-10"}, {Platform: "zybo-z7-10"}},
		FreqMHz: 140, Router: "round-robin", CacheImages: 0,
	}
	if got, want := c.Label(), "3× zybo-z7-10 @140 MHz, round-robin, profile cache"; got != want {
		t.Errorf("Label = %q, want %q", got, want)
	}
}

func TestEnumerateDefaultSpace(t *testing.T) {
	cands := Space{}.Enumerate()
	if len(cands) < 500 {
		t.Fatalf("default space has %d candidates, want ≥ 500", len(cands))
	}
	// Deterministic: a second enumeration matches element for element.
	again := Space{}.Enumerate()
	if !reflect.DeepEqual(cands, again) {
		t.Error("Enumerate is not deterministic")
	}
}

func TestSurrogateMonotoneInLoad(t *testing.T) {
	sur := NewSurrogate()
	c := Candidate{Boards: []cluster.BoardSpec{{Platform: "zedboard"}}, FreqMHz: 200, Router: "round-robin"}
	slo := SLO{P99: 12 * sim.Millisecond, MaxShed: 0.01}
	prev := math.Inf(-1)
	for _, rate := range []float64{50, 100, 200, 400, 800, 1600} {
		w := Workload{RatePerSec: rate, Requests: 96, ASPs: DefaultASPs(), Deadline: 20 * sim.Millisecond}
		pred, err := sur.Score(c, w, slo)
		if err != nil {
			t.Fatal(err)
		}
		if pred.P99US < prev {
			t.Errorf("predicted p99 fell from %.1f to %.1f µs as load rose to %.0f req/s", prev, pred.P99US, rate)
		}
		prev = pred.P99US
	}
}
