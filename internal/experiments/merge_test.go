package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func testSeries(name string, ys ...float64) sim.Series {
	s := sim.Series{Name: name, XLabel: "x", YLabel: "y"}
	for i, y := range ys {
		s.Append(float64(i), y)
	}
	return s
}

// mergeParts is three shard reports of one scenario: series x and y recur
// across shards, z appears only in the middle one.
func mergeParts() []*Report {
	header := []string{"k", "v"}
	return []*Report{
		{ID: "T", Title: "merge", Header: header, Rows: [][]string{{"a", "1"}}, Notes: []string{"n0"},
			Series: []sim.Series{testSeries("x", 1), testSeries("y", 10)}, SimEvents: 1, WallMS: 1.5},
		{ID: "T", Title: "merge", Header: header, Rows: [][]string{{"b", "2"}}, Notes: []string{"n1"},
			Series: []sim.Series{testSeries("z", 20), testSeries("y", 11)}, SimEvents: 2, WallMS: 2.5},
		{ID: "T", Title: "merge", Header: header, Rows: [][]string{{"c", "3"}, {"d", "4"}},
			Series: []sim.Series{testSeries("x", 2, 3)}, SimEvents: 3, WallMS: 3},
	}
}

// TestMergeShards pins the one merge every scenario shares: rows and
// notes in shard order, same-name series stitched in first-seen name
// order, distinct names kept apart, and the profiling tallies summed.
func TestMergeShards(t *testing.T) {
	parts := mergeParts()
	rep, err := mergeShards(Scenario{}, Config{}, parts)
	if err != nil {
		t.Fatal(err)
	}
	x := testSeries("x", 1)
	x.Points = append(x.Points, testSeries("x", 2, 3).Points...)
	y := testSeries("y", 10)
	y.Points = append(y.Points, testSeries("y", 11).Points...)
	want := &Report{
		ID: "T", Title: "merge", Header: []string{"k", "v"},
		Rows:      [][]string{{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}},
		Series:    []sim.Series{x, y, testSeries("z", 20)},
		Notes:     []string{"n0", "n1"},
		SimEvents: 6,
		WallMS:    7,
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("merged report:\n%+v\nwant\n%+v", rep, want)
	}
	// Stitching copies: the shard reports keep their own points.
	if n := len(parts[0].Series[0].Points); n != 1 {
		t.Errorf("merge grew shard 0's series x to %d points", n)
	}
}

// TestMergeShardsSummarize: Summarize sees the merged report and the
// campaign configuration, and its error fails the merge.
func TestMergeShardsSummarize(t *testing.T) {
	s := Scenario{Summarize: func(cfg Config, rep *Report) error {
		rep.Notes = append(rep.Notes, fmt.Sprintf("%d rows at seed %d", len(rep.Rows), cfg.Seed))
		return nil
	}}
	rep, err := mergeShards(s, Config{Seed: 3}, mergeParts())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Notes[len(rep.Notes)-1]; got != "4 rows at seed 3" {
		t.Errorf("summary note = %q", got)
	}
	boom := errors.New("boom")
	s.Summarize = func(Config, *Report) error { return boom }
	if _, err := mergeShards(s, Config{}, mergeParts()); !errors.Is(err, boom) {
		t.Errorf("err = %v, want the Summarize error", err)
	}
}

// TestShardRangeChecked: every registered scenario rejects a shard outside
// its plan with an error that names it, before any work and never by a
// panic — whether it is reached through the campaign or called directly.
func TestShardRangeChecked(t *testing.T) {
	env, err := NewEnv(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All() {
		for _, shard := range []int{-1, s.Shards(env.Cfg)} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s shard %d panicked: %v", s.ID, shard, r)
					}
				}()
				_, err := s.Run(context.Background(), env, shard)
				if err == nil || !strings.Contains(err.Error(), s.ID+" shard") {
					t.Errorf("%s shard %d: err = %v, want an out-of-range error naming %s", s.ID, shard, err, s.ID)
				}
			}()
		}
	}
}
