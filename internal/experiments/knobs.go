package experiments

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Knob is one scenario knob: a typed Config field a campaign may reshape
// by name. The knob table is the only place a knob's name, usage text,
// parser and range rule are written; Config.Set, Config.Validate,
// pdr.WithParam and the pdrbench flags all read it, so a new knob is one
// Config field plus one row.
type Knob struct {
	// Name is the knob's pdrbench flag (without the dash) and its
	// pdr.WithParam name.
	Name string
	// Usage is the flag help text; it names the default.
	Usage string
	// set parses a value into the knob's Config field.
	set func(c *Config, value string) error
	// check is the field's range rule.
	check func(c Config) error
}

// maxChaosFaults bounds each E15 fault class: the storm lands inside a
// 240 ms horizon, and an unbounded count would only exhaust memory.
const maxChaosFaults = 1000

var knobs = []Knob{
	knob("freqs", "comma-separated frequency axis in MHz of E2, E3, E4 and E10 (default: the paper grids)",
		func(c *Config) *[]float64 { return &c.Freqs }, listOf(parseFloat),
		each(within("finite, > 0", func(f float64) bool { return finite(f) && f > 0 }))),
	knob("temps", "comma-separated die-temperature axis in °C of E3 and E4 (default: the paper grids)",
		func(c *Config) *[]float64 { return &c.Temps }, listOf(parseFloat), tempRule),
	knob("rates", fmt.Sprintf("comma-separated offered-load axis in req/s of E11 (default %s)", csv(satRateGrid(Config{}))),
		func(c *Config) *[]float64 { return &c.Rates }, listOf(parseFloat),
		each(within("finite, > 0", func(r float64) bool { return finite(r) && r > 0 }))),
	knob("fleet", fmt.Sprintf("comma-separated fleet sizes of the scale-out scenario E13 (default %s)", csv(fleetSizes(Config{}))),
		func(c *Config) *[]int { return &c.FleetSizes }, listOf(strconv.Atoi),
		each(within("≥ 1", func(n int) bool { return n >= 1 }))),
	knob("router", fmt.Sprintf("routing policy of E13 (%s; default %s)", strings.Join(cluster.RouterNames(), "|"), fleetRouterName(Config{})),
		func(c *Config) *string { return &c.Router }, parseString, oneOf("router", cluster.RouterNames)),
	chaosKnob("chaos-crashes", "board outages", chaosCrashes, func(c *Config) *int { return &c.ChaosCrashes }),
	chaosKnob("chaos-excursions", "thermal excursions", chaosExcursions, func(c *Config) *int { return &c.ChaosExcursions }),
	chaosKnob("chaos-glitches", "CRC glitch bursts", chaosGlitches, func(c *Config) *int { return &c.ChaosGlitches }),
	knob("trace-in", "replay the E16 arrival stream from a versioned trace file (default: generate it from the seed)",
		func(c *Config) *string { return &c.TraceFile }, parseString,
		func(path string) error {
			if path == "" {
				return nil
			}
			_, err := readTrace(path)
			return err
		}),
	knob("scaler", fmt.Sprintf("restrict E16 to one autoscaler policy (%s; default: compare all)", strings.Join(cluster.ScalerPolicies(), "|")),
		func(c *Config) *string { return &c.Scaler }, parseString, oneOf("scaler", cluster.ScalerPolicies)),
	knob("plan-rate", fmt.Sprintf("offered load in req/s the E17 planner plans for (0 = %d)", planRatePerSec),
		func(c *Config) *float64 { return &c.PlanRate }, parseFloat, nonNegative),
	knob("plan-p99", fmt.Sprintf("E17 SLO: p99 sojourn bound in ms (0 = %d)", planP99/sim.Millisecond),
		func(c *Config) *float64 { return &c.PlanP99MS }, parseFloat, nonNegative),
	knob("plan-shed", fmt.Sprintf("E17 SLO: maximum shed fraction (0 = %g)", planShed),
		func(c *Config) *float64 { return &c.PlanShed }, parseFloat,
		within("a fraction in [0, 1]", func(f float64) bool { return f >= 0 && f <= 1 })),
}

// Knobs lists the scenario knobs in table order.
func Knobs() []Knob { return slices.Clone(knobs) }

// Set parses value into the Config field of the knob called name. It
// checks syntax only; Validate applies the range rules.
func (c *Config) Set(name, value string) error {
	i := slices.IndexFunc(knobs, func(k Knob) bool { return k.Name == name })
	if i < 0 {
		names := make([]string, len(knobs))
		for j, k := range knobs {
			names[j] = k.Name
		}
		return fmt.Errorf("experiments: unknown knob %q (want %s)", name, strings.Join(names, "|"))
	}
	if err := knobs[i].set(c, value); err != nil {
		return fmt.Errorf("experiments: invalid -%s %q: %w", name, value, err)
	}
	return nil
}

// absoluteZeroC is the lowest temperature a grid may name.
const absoluteZeroC = -273.15

// Validate checks every knob of the configuration, including those the
// selected scenarios never read, so a malformed value fails before any
// shard starts: Platform names a registered profile ("" is the default),
// and every knob passes its table row's range rule.
func (c Config) Validate() error {
	if _, err := ProfileFor(c); err != nil {
		return err
	}
	for _, k := range knobs {
		if err := k.check(c); err != nil {
			return fmt.Errorf("experiments: invalid -%s: %w", k.Name, err)
		}
	}
	return nil
}

// knob builds a table row for the Config field at returns: parse reads a
// value into it, and rule is its range rule.
func knob[T any](name, usage string, at func(*Config) *T, parse func(string) (T, error), rule func(T) error) Knob {
	return Knob{
		Name:  name,
		Usage: usage,
		set: func(c *Config, s string) error {
			v, err := parse(s)
			if err == nil {
				*at(c) = v
			}
			return err
		},
		check: func(c Config) error { return rule(*at(&c)) },
	}
}

// chaosKnob is the row of one E15 fault-class count: 0 keeps the standard
// storm's count def, a negative count removes the class.
func chaosKnob(name, what string, def int, at func(*Config) *int) Knob {
	return knob(name, fmt.Sprintf("%s in the E15 storm (0 = standard %d, negative = none)", what, def),
		at, strconv.Atoi, within(fmt.Sprintf("≤ %d", maxChaosFaults), func(n int) bool { return n <= maxChaosFaults }))
}

// tempRule: every temperature is physical, and no two label the same E3/E4
// column (and E4 series), adjacent or not.
func tempRule(temps []float64) error {
	seen := map[string]float64{}
	for _, t := range temps {
		if !finite(t) || t < absoluteZeroC {
			return fmt.Errorf("%v out of range (want finite, ≥ %g)", t, absoluteZeroC)
		}
		if prev, dup := seen[tempLabel(t)]; dup {
			return fmt.Errorf("%v and %v both label column %s (want distinct whole-degree labels)", prev, t, tempLabel(t))
		}
		seen[tempLabel(t)] = t
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// orDefault is a scenario's grid: the knob's values when set, else def.
func orDefault[T any](knob, def []T) []T {
	if len(knob) > 0 {
		return knob
	}
	return def
}

var nonNegative = within("finite, ≥ 0", func(f float64) bool { return finite(f) && f >= 0 })

// within is the range rule "ok(v)", reported against the wanted range.
func within[T any](want string, ok func(T) bool) func(T) error {
	return func(v T) error {
		if !ok(v) {
			return fmt.Errorf("%v out of range (want %s)", v, want)
		}
		return nil
	}
}

// each applies a value's rule to every entry of a grid.
func each[T any](rule func(T) error) func([]T) error {
	return func(vs []T) error {
		for _, v := range vs {
			if err := rule(v); err != nil {
				return err
			}
		}
		return nil
	}
}

// oneOf accepts "" (the scenario default) or a name the registry lists.
func oneOf(kind string, names func() []string) func(string) error {
	return func(v string) error {
		if v != "" && !slices.Contains(names(), v) {
			return fmt.Errorf("unknown %s %q (want %s)", kind, v, strings.Join(names(), "|"))
		}
		return nil
	}
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func parseString(s string) (string, error) { return s, nil }

// listOf parses a comma-separated grid; blank entries are skipped, and a
// blank value keeps the default grid.
func listOf[T any](parse func(string) (T, error)) func(string) ([]T, error) {
	return func(s string) ([]T, error) {
		var out []T
		for _, f := range strings.Split(s, ",") {
			if f = strings.TrimSpace(f); f == "" {
				continue
			}
			v, err := parse(f)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		if out == nil && strings.TrimSpace(s) != "" {
			return nil, errors.New("want comma-separated values, e.g. 1,2,4")
		}
		return out, nil
	}
}

// csv renders a default grid in the knobs' comma-separated syntax.
func csv[T any](vs []T) string {
	s := make([]string, len(vs))
	for i, v := range vs {
		s[i] = fmt.Sprint(v)
	}
	return strings.Join(s, ",")
}
