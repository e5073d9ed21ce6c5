package workload

import (
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/platform"
	"repro/internal/sim"
)

func TestLibraryWellFormed(t *testing.T) {
	lib := Library()
	if len(lib) < 5 {
		t.Fatalf("library has %d ASPs, want ≥5", len(lib))
	}
	seen := map[string]bool{}
	for _, a := range lib {
		if seen[a.Name] {
			t.Errorf("duplicate ASP %q", a.Name)
		}
		seen[a.Name] = true
		if a.FillFraction <= 0 || a.FillFraction > 1 {
			t.Errorf("%s: fill %v", a.Name, a.FillFraction)
		}
		if a.ComputeTime <= 0 || a.ClockMHz <= 0 {
			t.Errorf("%s: bad compute/clock", a.Name)
		}
	}
}

func TestLibraryASPLookup(t *testing.T) {
	if _, err := LibraryASP("fir128"); err != nil {
		t.Error(err)
	}
	if _, err := LibraryASP("nope"); err == nil {
		t.Error("unknown ASP should fail")
	}
}

func TestFramesMatchRegionAndAreDeterministic(t *testing.T) {
	dev := platform.Default().Device()
	rp := platform.Default().RPs()[0]
	asp, _ := LibraryASP("aes-gcm")
	f1 := asp.Frames(dev, rp)
	f2 := asp.Frames(dev, rp)
	if len(f1) != dev.RegionFrames(rp) {
		t.Fatalf("frames = %d", len(f1))
	}
	for i := range f1 {
		for w := range f1[i] {
			if f1[i][w] != f2[i][w] {
				t.Fatal("frames not deterministic")
			}
		}
	}
}

func TestFramesDifferAcrossASPsAndRPs(t *testing.T) {
	dev := platform.Default().Device()
	rps := platform.Default().RPs()
	a, _ := LibraryASP("fir128")
	b, _ := LibraryASP("sha3")
	ca := bitstream.FrameCRC(a.Frames(dev, rps[0]))
	cb := bitstream.FrameCRC(b.Frames(dev, rps[0]))
	ca2 := bitstream.FrameCRC(a.Frames(dev, rps[1]))
	if ca == cb {
		t.Error("different ASPs produced identical frames")
	}
	if ca == ca2 {
		t.Error("same ASP on different RPs should differ (placement)")
	}
}

func TestBitstreamBuildsAtCalibratedSize(t *testing.T) {
	dev := platform.Default().Device()
	rp := platform.Default().RPs()[0]
	for _, asp := range Library() {
		bs, err := asp.Bitstream(dev, rp)
		if err != nil {
			t.Fatalf("%s: %v", asp.Name, err)
		}
		if bs.Size() != 528760 {
			t.Errorf("%s: size %d, want 528760", asp.Name, bs.Size())
		}
	}
}

// TestBitstreamIsSharedAndFrozen pins the image table: concurrent callers
// asking for the same (device, RP, ASP) all get one image, whose words and
// golden CRC Build filled in and which agree with Raw and Frames.
func TestBitstreamIsSharedAndFrozen(t *testing.T) {
	dev := platform.Default().Device()
	rp := platform.Default().RPs()[1]
	asp, _ := LibraryASP("fft1k")
	got := make([]*bitstream.Bitstream, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bs, err := asp.Bitstream(dev, rp)
			if err != nil {
				t.Error(err)
			}
			got[i] = bs
		}(i)
	}
	wg.Wait()
	for i, bs := range got {
		if bs == nil || bs != got[0] {
			t.Fatalf("goroutine %d got image %p, goroutine 0 got %p", i, bs, got[0])
		}
	}
	bs := got[0]
	body := bs.Raw[bitstream.HeaderBytes:]
	words := bs.Words()
	if len(words) != len(body)/4 {
		t.Fatalf("Words() = %d words, Raw holds %d", len(words), len(body)/4)
	}
	for i, w := range words {
		if want := binary.BigEndian.Uint32(body[4*i:]); w != want {
			t.Fatalf("word %d = %#x, Raw decodes to %#x", i, w, want)
		}
	}
	if got, want := bs.FrameCRC(), bitstream.FrameCRC(bs.Frames); got != want {
		t.Errorf("FrameCRC() = %#x, FrameCRC(Frames) = %#x", got, want)
	}
}

func TestFillFractionDrivesCompressibility(t *testing.T) {
	dev := platform.Default().Device()
	rp := platform.Default().RPs()[0]
	sparse := ASP{Name: "sparse", FillFraction: 0.3, Seed: 1}
	dense := ASP{Name: "dense", FillFraction: 0.9, Seed: 2}
	ratio := func(a ASP) float64 {
		bs, err := a.Bitstream(dev, rp)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := bitstream.Compress(bs.Raw)
		if err != nil {
			t.Fatal(err)
		}
		return bitstream.CompressionRatio(bs.Raw, comp)
	}
	rs, rd := ratio(sparse), ratio(dense)
	if rs <= rd {
		t.Errorf("sparse ratio %v should exceed dense %v", rs, rd)
	}
	if rs < 2 {
		t.Errorf("sparse design should compress ≥2× (got %v)", rs)
	}
}

func TestPoissonTraceProperties(t *testing.T) {
	rps := []string{"RP1", "RP2"}
	asps := []string{"fir128", "sha3"}
	tr := PoissonTrace(7, 200, sim.Millisecond, rps, asps)
	if len(tr) != 200 {
		t.Fatalf("len = %d", len(tr))
	}
	if err := tr.Validate(rps, asps); err != nil {
		t.Fatal(err)
	}
	// Mean gap ≈ 1 ms within 20%.
	mean := float64(tr[len(tr)-1].At) / float64(len(tr))
	if mean < 0.8e9 || mean > 1.2e9 {
		t.Errorf("mean gap = %v ps, want ≈1e9", mean)
	}
	// Determinism.
	tr2 := PoissonTrace(7, 200, sim.Millisecond, rps, asps)
	for i := range tr {
		if tr[i] != tr2[i] {
			t.Fatal("trace not deterministic")
		}
	}
}

func TestRoundRobinTrace(t *testing.T) {
	rps := []string{"RP1", "RP2"}
	asps := []string{"a", "b", "c"}
	tr := RoundRobinTrace(6, sim.Millisecond, rps, asps)
	if err := tr.Validate(rps, []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	if tr[0].RP != "RP1" || tr[1].RP != "RP2" || tr[2].RP != "RP1" {
		t.Error("RP rotation wrong")
	}
	if tr[0].ASP != "a" || tr[1].ASP != "b" || tr[2].ASP != "c" || tr[3].ASP != "a" {
		t.Error("ASP rotation wrong")
	}
}

func TestTraceValidateCatchesBadRefs(t *testing.T) {
	rps, asps := []string{"RP1"}, []string{"fir128"}
	tr := Trace{{At: 1, RP: "RPX", ASP: "fir128"}}
	err := tr.Validate(rps, asps)
	if err == nil {
		t.Error("unknown RP should fail")
	} else if !strings.Contains(err.Error(), "RPX") || !strings.Contains(err.Error(), "request 0") {
		t.Errorf("RP error should name the offender and index: %v", err)
	}
	tr = Trace{{At: 1, RP: "RP1", ASP: "fir128"}, {At: 2, RP: "RP1", ASP: "zzz"}}
	err = tr.Validate(rps, asps)
	if err == nil {
		t.Error("unknown ASP should fail")
	} else if !strings.Contains(err.Error(), "zzz") || !strings.Contains(err.Error(), "request 1") {
		t.Errorf("ASP error should name the offender and index: %v", err)
	}
	tr = Trace{{At: 5, RP: "RP1", ASP: "fir128"}, {At: 1, RP: "RP1", ASP: "fir128"}}
	if err := tr.Validate(rps, asps); err == nil {
		t.Error("out-of-order trace should fail")
	}
	if err := (Trace{}).Validate(rps, asps); err != nil {
		t.Errorf("empty trace is valid: %v", err)
	}
}

func TestRoundRobinTraceDeterministic(t *testing.T) {
	rps := []string{"RP1", "RP2", "RP3"}
	asps := []string{"fir128", "sha3"}
	a := RoundRobinTrace(50, 100*sim.Microsecond, rps, asps)
	b := RoundRobinTrace(50, 100*sim.Microsecond, rps, asps)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identical calls", i)
		}
	}
}

func TestOpenPoissonMeanRateConverges(t *testing.T) {
	rps := []string{"RP1", "RP2"}
	asps := []string{"fir128", "sha3"}
	const rate = 500.0 // req/s
	tr, err := OpenPoisson(11, 4000, rate, rps, asps)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(rps, asps); err != nil {
		t.Fatal(err)
	}
	measured := float64(len(tr)) / tr[len(tr)-1].At.Seconds()
	if measured < 0.95*rate || measured > 1.05*rate {
		t.Errorf("measured rate %.1f req/s, want %.0f ±5%%", measured, rate)
	}
	// Determinism under a fixed seed.
	tr2, err := OpenPoisson(11, 4000, rate, rps, asps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr {
		if tr[i] != tr2[i] {
			t.Fatalf("request %d differs across identical seeds", i)
		}
	}
}

func TestOpenBurstsMeanRateAndShape(t *testing.T) {
	rps := []string{"RP1", "RP2"}
	asps := []string{"fir128", "sha3"}
	const rate, factor, blen = 400.0, 4.0, 8
	tr, err := OpenBursts(13, 4000, rate, factor, blen, rps, asps)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(rps, asps); err != nil {
		t.Fatal(err)
	}
	measured := float64(len(tr)) / tr[len(tr)-1].At.Seconds()
	if measured < 0.95*rate || measured > 1.05*rate {
		t.Errorf("measured rate %.1f req/s, want %.0f ±5%%", measured, rate)
	}
	// Burstiness: gaps inside a burst are much shorter on average than the
	// gaps between bursts.
	var intra, inter float64
	var nIntra, nInter int
	for i := 1; i < len(tr); i++ {
		gap := float64(tr[i].At - tr[i-1].At)
		if i%blen == 0 {
			inter += gap
			nInter++
		} else {
			intra += gap
			nIntra++
		}
	}
	if intra/float64(nIntra) >= inter/float64(nInter) {
		t.Error("intra-burst gaps should be shorter than inter-burst gaps")
	}
}

func TestArrivalSpecTenantsAndDeadlines(t *testing.T) {
	spec := ArrivalSpec{
		RatePerSec: 100,
		Tenants:    []string{"alpha", "beta"},
		Deadline:   20 * sim.Millisecond,
	}
	tr, err := spec.Generate(3, 200, []string{"RP1"}, []string{"fir128"})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, req := range tr {
		seen[req.Tenant]++
		if req.Deadline != 20*sim.Millisecond {
			t.Fatalf("deadline not stamped: %+v", req)
		}
	}
	if seen["alpha"] == 0 || seen["beta"] == 0 || seen[""] != 0 {
		t.Errorf("tenant mix = %v, want both tenants and no anonymous", seen)
	}
}

// TestArrivalSpecBurstFactorWithoutBurstLen covers the degenerate burst
// shapes: BurstFactor > 1 with BurstLen ≤ 0 (or 1) cannot form bursts, so
// the stream must quietly fall back to pure Poisson at the requested mean
// rate — not panic on a modulo by zero or emit a zero-gap stream.
func TestArrivalSpecBurstFactorWithoutBurstLen(t *testing.T) {
	rps := []string{"RP1", "RP2"}
	asps := []string{"fir128", "sha3"}
	const rate = 500.0
	for _, blen := range []int{0, -3, 1} {
		spec := ArrivalSpec{RatePerSec: rate, BurstFactor: 4, BurstLen: blen}
		tr, err := spec.Generate(11, 4000, rps, asps)
		if err != nil {
			t.Fatalf("BurstLen %d: %v", blen, err)
		}
		if err := tr.Validate(rps, asps); err != nil {
			t.Fatalf("BurstLen %d: %v", blen, err)
		}
		measured := float64(len(tr)) / tr[len(tr)-1].At.Seconds()
		if measured < 0.95*rate || measured > 1.05*rate {
			t.Errorf("BurstLen %d: measured rate %.1f req/s, want %.0f ±5%%", blen, measured, rate)
		}
		// The degenerate spec must be byte-identical to the plain Poisson
		// stream — the factor is ignored, not half-applied.
		plain, err := OpenPoisson(11, 4000, rate, rps, asps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr {
			if tr[i] != plain[i] {
				t.Fatalf("BurstLen %d: request %d diverges from pure Poisson: %+v vs %+v",
					blen, i, tr[i], plain[i])
			}
		}
	}
}

func TestArrivalSpecSkewedPopularity(t *testing.T) {
	rps := []string{"RP1", "RP2", "RP3"}
	asps := []string{"hot", "warm", "cold", "frozen"}
	spec := ArrivalSpec{RatePerSec: 100, Skew: 1.2, Tenants: []string{"big", "small"}}
	// The ASP list here is synthetic — skip trace validation, count draws.
	tr, err := spec.Generate(7, 4000, rps, asps)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	tenants := map[string]int{}
	for _, req := range tr {
		counts[req.ASP]++
		tenants[req.Tenant]++
	}
	if !(counts["hot"] > counts["warm"] && counts["warm"] > counts["cold"] && counts["cold"] > counts["frozen"]) {
		t.Errorf("skewed draw not monotone over the list: %v", counts)
	}
	if counts["hot"] < 2*counts["frozen"] {
		t.Errorf("skew 1.2 should separate head from tail clearly: %v", counts)
	}
	if tenants["big"] <= tenants["small"] {
		t.Errorf("tenant popularity should skew too: %v", tenants)
	}
	// Determinism under a fixed seed.
	tr2, err := spec.Generate(7, 4000, rps, asps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr {
		if tr[i] != tr2[i] {
			t.Fatalf("request %d differs across identical seeds", i)
		}
	}
}

func TestArrivalSpecRejectsBadInputs(t *testing.T) {
	if _, err := OpenPoisson(1, 10, 0, []string{"RP1"}, []string{"fir128"}); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := OpenPoisson(1, 10, 100, nil, []string{"fir128"}); err == nil {
		t.Error("no RPs should fail")
	}
	if _, err := OpenPoisson(1, 10, 100, []string{"RP1"}, nil); err == nil {
		t.Error("no ASPs should fail")
	}
}
