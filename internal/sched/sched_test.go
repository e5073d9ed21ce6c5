package sched

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

func item(seq int, at sim.Time, rp, asp string) *Item {
	return &Item{Seq: seq, At: at, RP: rp, ASP: asp}
}

func TestFCFSPicksEarliestArrival(t *testing.T) {
	cands := []Candidate{
		{Item: item(2, 30, "RP1", "a")},
		{Item: item(0, 10, "RP2", "b")},
		{Item: item(1, 20, "RP3", "c")},
	}
	if got := FCFS().Pick(cands); got != 1 {
		t.Errorf("FCFS picked %d, want 1 (earliest arrival)", got)
	}
	// Equal times break by sequence.
	cands[0].Item.At = 10
	if got := FCFS().Pick(cands); got != 1 {
		t.Errorf("FCFS tie-break picked %d, want 1 (lower seq)", got)
	}
}

func TestSBFRanksByAcquisitionCost(t *testing.T) {
	cands := []Candidate{
		{Item: item(0, 10, "RP1", "a"), ImageBytes: 500},                 // uncached: 5000
		{Item: item(1, 20, "RP2", "b"), ImageBytes: 900, Cached: true},   // 900
		{Item: item(2, 30, "RP3", "c"), ImageBytes: 800, Resident: true}, // 0
	}
	if got := SBF().Pick(cands); got != 2 {
		t.Errorf("SBF picked %d, want 2 (resident hit)", got)
	}
	cands[2].Resident = false // now uncached: 8000
	if got := SBF().Pick(cands); got != 1 {
		t.Errorf("SBF picked %d, want 1 (cached image)", got)
	}
}

func TestAffinityPrefersResidencyThenCache(t *testing.T) {
	cands := []Candidate{
		{Item: item(0, 10, "RP1", "a")},
		{Item: item(1, 20, "RP2", "b"), Cached: true},
		{Item: item(2, 30, "RP3", "c"), Resident: true},
	}
	if got := Affinity().Pick(cands); got != 2 {
		t.Errorf("affinity picked %d, want 2 (resident)", got)
	}
	cands[2].Resident = false
	if got := Affinity().Pick(cands); got != 1 {
		t.Errorf("affinity picked %d, want 1 (cached)", got)
	}
	cands[1].Cached = false
	if got := Affinity().Pick(cands); got != 0 {
		t.Errorf("affinity picked %d, want 0 (FCFS fallback)", got)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := PolicyByName("lifo"); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestQueueAdmissionControl(t *testing.T) {
	q := NewQueue(2)
	if !q.Offer(item(0, 1, "RP1", "a")) || !q.Offer(item(1, 2, "RP1", "b")) {
		t.Fatal("offers under cap must be admitted")
	}
	if q.Offer(item(2, 3, "RP1", "c")) {
		t.Error("offer over cap must be shed")
	}
	if q.Len() != 2 {
		t.Errorf("len=%d, want 2 (rejected offer must not enqueue)", q.Len())
	}
	got := q.Remove(1)
	if got.ASP != "b" || q.Len() != 1 {
		t.Errorf("Remove(1) = %+v, len=%d", got, q.Len())
	}
	// Capacity freed: admission works again.
	if !q.Offer(item(3, 4, "RP1", "d")) {
		t.Error("offer after Remove must be admitted")
	}
}

func TestUnboundedQueueNeverSheds(t *testing.T) {
	q := NewQueue(0)
	for i := 0; i < 100; i++ {
		if !q.Offer(item(i, sim.Time(i), "RP1", "a")) {
			t.Fatal("unbounded queue shed a request")
		}
	}
	if q.Len() != 100 {
		t.Errorf("len = %d, want 100", q.Len())
	}
}

// buildImages builds n distinct real bitstreams for cache tests.
func buildImages(t *testing.T, n int) []*bitstream.Bitstream {
	t.Helper()
	prof := platform.Default()
	dev := prof.Device()
	rp := prof.RPs()[0]
	out := make([]*bitstream.Bitstream, n)
	for i := range out {
		asp := workload.ASP{Name: "img", FillFraction: 0.5, Seed: uint64(i + 1)}
		bs, err := asp.Bitstream(dev, rp)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = bs
	}
	return out
}

func TestCacheLRUEvictionUnderBudget(t *testing.T) {
	imgs := buildImages(t, 3)
	size := int64(imgs[0].Size())
	c := NewCache(2 * size) // room for two images
	c.Put("a", imgs[0])
	c.Put("b", imgs[1])
	if _, ok := c.Get("a"); !ok { // touch a: b becomes coldest
		t.Fatal("a must be resident")
	}
	c.Put("c", imgs[2]) // evicts b (LRU)
	if c.Contains("b") {
		t.Error("b should have been evicted")
	}
	if !c.Contains("a") || !c.Contains("c") {
		t.Error("a and c should be resident")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.ResidentBytes != 2*size || st.PeakBytes != 2*size {
		t.Errorf("resident=%d peak=%d, want %d", st.ResidentBytes, st.PeakBytes, 2*size)
	}
}

func TestCacheDisabledAlwaysMisses(t *testing.T) {
	imgs := buildImages(t, 1)
	c := NewCache(0)
	if c.Enabled() {
		t.Error("budget 0 must disable the cache")
	}
	c.Put("a", imgs[0])
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache must miss")
	}
	if st := c.Stats(); st.Misses != 1 || st.ResidentBytes != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheUnlimitedHoldsEverything(t *testing.T) {
	imgs := buildImages(t, 3)
	c := NewCache(-1)
	c.Put("a", imgs[0])
	c.Put("b", imgs[1])
	c.Put("c", imgs[2])
	for _, k := range []string{"a", "b", "c"} {
		if !c.Contains(k) {
			t.Errorf("%s missing from unlimited cache", k)
		}
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Errorf("evictions = %d", st.Evictions)
	}
}

func TestCacheHitRatio(t *testing.T) {
	imgs := buildImages(t, 1)
	c := NewCache(-1)
	if got := c.Stats().HitRatio(); got != 0 {
		t.Errorf("fresh cache HitRatio = %v, want 0 (no division by zero)", got)
	}
	c.Get("a") // miss
	c.Put("a", imgs[0])
	c.Get("a") // hit
	c.Get("a") // hit
	if got := c.Stats().HitRatio(); got != 2.0/3.0 {
		t.Errorf("HitRatio = %v, want 2/3", got)
	}

	// The disabled-cache ablation (budget 0): every Get misses, so the
	// ratio must be a clean 0 — both before any lookup and after many.
	off := NewCache(0)
	if got := off.Stats().HitRatio(); got != 0 {
		t.Errorf("disabled cache HitRatio = %v before lookups, want 0", got)
	}
	off.Put("a", imgs[0])
	for i := 0; i < 5; i++ {
		off.Get("a")
	}
	if got := off.Stats().HitRatio(); got != 0 {
		t.Errorf("disabled cache HitRatio = %v, want 0", got)
	}
}

func TestCacheOversizeImageDropped(t *testing.T) {
	imgs := buildImages(t, 1)
	c := NewCache(int64(imgs[0].Size()) - 1)
	c.Put("a", imgs[0])
	if c.Contains("a") {
		t.Error("image larger than the whole budget must not be pinned")
	}
}
