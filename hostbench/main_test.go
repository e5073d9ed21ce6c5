package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"repro/pdr"
)

// TestSelfCheck runs op 0 of each workload, requires the judge to accept
// it, and requires the judge to reject the perturbed copy the benchmark's
// own self-check uses.
func TestSelfCheck(t *testing.T) {
	for _, w := range []workload{&reconfigW{seed: 42}, &fleetW{seed: 42}, &planW{seed: 42}} {
		if testing.Short() {
			if _, ok := w.(*planW); ok {
				continue
			}
		}
		if err := w.setup(nil); err != nil {
			t.Fatalf("%T setup: %v", w, err)
		}
		raw, err := w.op(0, nil)
		if err != nil {
			t.Fatalf("%T op: %v", w, err)
		}
		v := w.judge(raw)
		if v.err != nil {
			t.Fatalf("%T: unperturbed result rejected: %v", w, v.err)
		}
		if p := w.judge(w.perturb(raw)); p.err == nil || p.digest == v.digest {
			t.Errorf("%T: perturbed result passed (err %v, digest changed %v)", w, p.err, p.digest != v.digest)
		}
	}
}

// TestCampaignJudge checks the campaign judge on a synthetic result with
// one report per registered scenario; a full campaign is too slow here.
func TestCampaignJudge(t *testing.T) {
	res := &pdr.CampaignResult{}
	for _, s := range pdr.Scenarios() {
		res.Reports = append(res.Reports, &pdr.Report{ID: s.ID, Rows: [][]string{{"x"}}, SimEvents: 1})
	}
	w := &campaignW{seed: 1}
	if v := w.judge(res); v.err != nil {
		t.Fatalf("synthetic campaign rejected: %v", v.err)
	}
	if v := w.judge(w.perturb(res)); v.err == nil {
		t.Error("campaign with a dropped report passed")
	}
	w.want = []byte("not the markdown")
	if v := w.judge(res); v.err == nil {
		t.Error("campaign whose Markdown differs from the golden file passed")
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/dma.(*Engine).pump", "main.main"}, "dma"},
		{[]string{"hash/crc32.castagnoliSSE42", "repro/internal/bitstream.(*FrameCRCHasher).Fold"}, "bitstream"},
		{[]string{"runtime.memmove", "repro/internal/fabric.(*Memory).Write"}, "fabric"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "repro/internal/dram.(*Traffic).pump"}, "runtime_malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"repro/internal/thermal.(*Die).step"}, "other"},
		{[]string{"runtime.futex", "runtime.mstart"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestCPUShares profiles a busy loop and checks that the reader parses
// the profile and that the shares sum to one.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler unavailable:", err)
	}
	data := make([]byte, 1<<16)
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		data[0] = sha256.Sum256(data)[0]
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if len(shares) != len(cpuBuckets()) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares %v sum to %v over %d buckets", shares, sum, len(shares))
	}
}

func TestTail(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if p, val, beyond, ok := tail(v); !ok || p != 90 || val != 90 || beyond != 10 {
		t.Errorf("tail of 1..100 = p%v %v (%d beyond, ok %v), want p90 90 (10 beyond)", p, val, beyond, ok)
	}
	if _, _, _, ok := tail(v[:10]); ok {
		t.Error("tail of 10 samples should not qualify")
	}
}
