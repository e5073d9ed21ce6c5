package experiments

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestKnobTable: the table declares 13 uniquely named knobs, each with a
// usage text, and each row's range rule rejects one out-of-range value
// through Validate, naming the knob. Set rejects an unknown name.
func TestKnobTable(t *testing.T) {
	bad := map[string]string{
		"freqs":            "0",
		"temps":            "-400",
		"rates":            "-5",
		"fleet":            "0",
		"router":           "bogus",
		"chaos-crashes":    "1001",
		"chaos-excursions": "1001",
		"chaos-glitches":   "1001",
		"trace-in":         filepath.Join(t.TempDir(), "absent.json"),
		"scaler":           "bogus",
		"plan-rate":        "-1",
		"plan-p99":         "NaN",
		"plan-shed":        "1.5",
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	seen := map[string]bool{}
	for _, k := range Knobs() {
		if seen[k.Name] {
			t.Errorf("knob %q declared twice", k.Name)
		}
		seen[k.Name] = true
		if k.Usage == "" {
			t.Errorf("knob %q has no usage text", k.Name)
		}
		v, ok := bad[k.Name]
		if !ok {
			t.Errorf("knob %q has no out-of-range case", k.Name)
			continue
		}
		var cfg Config
		if err := cfg.Set(k.Name, v); err != nil {
			t.Errorf("%s=%s does not parse: %v", k.Name, v, err)
			continue
		}
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "invalid -"+k.Name) {
			t.Errorf("%s=%s: Validate err = %v, want it to name the knob", k.Name, v, err)
		}
	}
	if len(seen) != len(bad) {
		t.Errorf("table has %d knobs, want %d", len(seen), len(bad))
	}
	// E3 and E4 label each temperature column (and E4 each series) with
	// whole degrees, so a grid whose labels collide is rejected, adjacent
	// or not.
	for _, v := range []string{"40,60,40", "40.2,40.4"} {
		var cfg Config
		if err := cfg.Set("temps", v); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "invalid -temps") {
			t.Errorf("temps=%s: Validate err = %v, want a label collision naming the knob", v, err)
		}
	}
	var cfg Config
	if err := cfg.Set("fleet-size", "2"); err == nil || !strings.Contains(err.Error(), "unknown knob") {
		t.Errorf("unknown knob accepted (err = %v)", err)
	}
}
