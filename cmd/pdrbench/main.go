// Command pdrbench regenerates the tables and figures of the paper's
// evaluation from the simulation via the Campaign API. Scenarios come from
// the experiment registry — adding a registered Scenario needs zero changes
// here.
//
// Usage:
//
//	pdrbench                      # run the full E1–A5 suite sequentially
//	pdrbench -run E1,E3           # a subset, by ID or legacy alias
//	pdrbench -platform zc706      # run on another registered platform
//	pdrbench -parallel 4          # shard the suite over 4 workers
//	                              # (output is byte-identical to -parallel 1)
//	pdrbench -parallel 0          # one worker per CPU
//	pdrbench -fleet-workers 8     # fan each fleet epoch out over 8 goroutines
//	                              # (0 = one per CPU; output is byte-identical)
//	pdrbench -fleet 1,2,4         # reshape the E13 fleet-size axis
//	pdrbench -router affinity     # E13 routing policy
//	pdrbench -chaos-crashes 3     # reshape the E15 fault storm
//	                              # (-chaos-excursions, -chaos-glitches too;
//	                              # 0 = standard storm, negative = none)
//	pdrbench -run E16 -trace-out day.json   # persist the E16 arrival stream
//	pdrbench -run E16 -trace-in day.json    # replay a recorded stream
//	pdrbench -run E16 -scaler predictive    # one autoscaler policy only
//	pdrbench -run E17 -plan-workers 4       # fan the planner's verifying
//	                              # simulations out (output is byte-identical)
//	pdrbench -run E17 -plan-rate 2800 -plan-p99 10 -plan-shed 0.005
//	                              # re-plan for another load/SLO point
//	pdrbench -run E13 -trace-events e13.json  # export request spans and
//	                              # control-plane events as Chrome trace-
//	                              # event JSON (Perfetto-loadable; bytes
//	                              # are identical at any -fleet-workers)
//	pdrbench -run E13 -metrics-out m.json     # sim-time metric series
//	                              # (queue depths, watts, shed; .csv for CSV)
//	pdrbench -pprof localhost:6060            # wall-clock pprof endpoints
//	                              # for the run's duration
//	pdrbench -json                # machine-readable reports
//	pdrbench -md > EXPERIMENTS.md # regenerate the committed artefact file
//	pdrbench -csv out/            # also write figure series as CSV files
//	pdrbench -list                # show the registered scenarios + platforms
//	pdrbench -list -json          # the registry as JSON (golden-tested)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/pdr"
)

type options struct {
	run             string
	platform        string
	parallel        int
	fleetWorkers    int
	seed            uint64
	jsonOut         bool
	mdOut           bool
	list            bool
	csvDir          string
	fleet           string
	router          string
	chaosCrashes    int
	chaosExcursions int
	chaosGlitches   int
	traceIn         string
	traceOut        string
	scaler          string
	planWorkers     int
	planRate        float64
	planP99         float64
	planShed        float64
	traceEvents     string
	metricsOut      string
	pprofAddr       string
}

func main() {
	var opts options
	flag.StringVar(&opts.run, "run", "all", "comma-separated scenario IDs or aliases (see -list)")
	flag.StringVar(&opts.platform, "platform", "", "platform profile to run on (default zedboard; see -list)")
	flag.IntVar(&opts.parallel, "parallel", 1, "campaign workers (0 = one per CPU)")
	flag.IntVar(&opts.fleetWorkers, "fleet-workers", 1, "goroutines per fleet epoch advance in E13-E16 (0 = one per CPU; output is byte-identical)")
	flag.Uint64Var(&opts.seed, "seed", 42, "simulation seed")
	flag.BoolVar(&opts.jsonOut, "json", false, "emit reports as JSON (with -list: the scenario registry)")
	flag.BoolVar(&opts.mdOut, "md", false, "emit the EXPERIMENTS.md document")
	flag.BoolVar(&opts.list, "list", false, "list registered scenarios and exit")
	flag.StringVar(&opts.csvDir, "csv", "", "directory to write figure CSV series into")
	flag.StringVar(&opts.fleet, "fleet", "", "comma-separated fleet sizes for the scale-out scenario E13 (e.g. 1,2,4)")
	flag.StringVar(&opts.router, "router", "", "routing policy for E13 (round-robin|least-outstanding|weighted|affinity)")
	flag.IntVar(&opts.chaosCrashes, "chaos-crashes", 0, "board outages in the E15 storm (0 = standard, negative = none)")
	flag.IntVar(&opts.chaosExcursions, "chaos-excursions", 0, "thermal excursions in the E15 storm (0 = standard, negative = none)")
	flag.IntVar(&opts.chaosGlitches, "chaos-glitches", 0, "CRC glitch bursts in the E15 storm (0 = standard, negative = none)")
	flag.StringVar(&opts.traceIn, "trace-in", "", "replay the E16 arrival stream from a versioned trace file")
	flag.StringVar(&opts.traceOut, "trace-out", "", "write the E16 arrival stream to a versioned trace file")
	flag.StringVar(&opts.scaler, "scaler", "", "restrict E16 to one autoscaler policy (reactive|predictive)")
	flag.IntVar(&opts.planWorkers, "plan-workers", 1, "goroutines for the E17 planner's verifying simulations (0 = one per CPU; output is byte-identical)")
	flag.Float64Var(&opts.planRate, "plan-rate", 0, "offered load in req/s the E17 planner plans for (0 = 2200)")
	flag.Float64Var(&opts.planP99, "plan-p99", 0, "E17 SLO: p99 sojourn bound in ms (0 = 12)")
	flag.Float64Var(&opts.planShed, "plan-shed", 0, "E17 SLO: maximum shed fraction (0 = 0.01)")
	flag.StringVar(&opts.traceEvents, "trace-events", "", "write the run's spans and events as Chrome trace-event JSON (load in Perfetto / chrome://tracing)")
	flag.StringVar(&opts.metricsOut, "metrics-out", "", "write the run's sim-time metric series (.csv = CSV, otherwise canonical JSON)")
	flag.StringVar(&opts.pprofAddr, "pprof", "", "serve wall-clock profiling at this address (e.g. localhost:6060) for the run's duration")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := realMain(ctx, os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "pdrbench:", err)
		os.Exit(1)
	}
}

func realMain(ctx context.Context, w io.Writer, opts options) error {
	if opts.list {
		if opts.jsonOut {
			return listScenariosJSON(w)
		}
		return listScenarios(w)
	}
	// Every campaign option is passed as parsed; its zero value is the
	// default, and the campaign validates them all before any shard runs.
	copts := []pdr.CampaignOption{
		pdr.WithCampaignSeed(opts.seed),
		pdr.WithWorkers(opts.parallel),
		pdr.WithFleetWorkers(opts.fleetWorkers),
		pdr.WithPlanWorkers(opts.planWorkers),
		pdr.WithBoardVariant(pdr.BoardVariant(opts.platform)),
		pdr.WithFleetRouter(opts.router),
		pdr.WithChaosStorm(opts.chaosCrashes, opts.chaosExcursions, opts.chaosGlitches),
		pdr.WithTraceFile(opts.traceIn),
		pdr.WithScalerPolicy(pdr.ScalerPolicy(opts.scaler)),
		pdr.WithPlanRate(opts.planRate),
		pdr.WithSLO(sim.Duration(opts.planP99*float64(sim.Millisecond)), opts.planShed),
	}
	if opts.fleet != "" {
		var sizes []int
		for _, s := range strings.Split(opts.fleet, ",") {
			if s = strings.TrimSpace(s); s == "" {
				continue
			}
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				return fmt.Errorf("invalid -fleet size %q (want positive integers)", s)
			}
			sizes = append(sizes, n)
		}
		if len(sizes) == 0 {
			return fmt.Errorf("invalid -fleet %q (want positive integers, e.g. 1,2,4)", opts.fleet)
		}
		copts = append(copts, pdr.WithFleetGrid(sizes...))
	}
	if opts.traceOut != "" {
		if err := writeTraceOut(opts); err != nil {
			return err
		}
		// The notice goes to stderr so -json/-md stdout stays parseable.
		fmt.Fprintf(os.Stderr, "wrote %s\n", opts.traceOut)
	}
	var tracer *pdr.Tracer
	if opts.traceEvents != "" || opts.metricsOut != "" {
		tracer = pdr.NewTracer()
		copts = append(copts, pdr.WithTracer(tracer))
	}
	if opts.pprofAddr != "" {
		// Listen synchronously so a bad address fails the run, then serve
		// for the run's duration. The pprof endpoints profile wall-clock
		// behaviour (scheduling, allocation) — the simulated clock has its
		// own deterministic exports above.
		ln, err := net.Listen("tcp", opts.pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, nil) }()
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", ln.Addr())
	}
	if opts.run != "" && opts.run != "all" {
		var ids []string
		for _, id := range strings.Split(opts.run, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
		copts = append(copts, pdr.WithScenarios(ids...))
	}
	res, err := pdr.NewCampaign(copts...).Run(ctx)
	if err != nil {
		return err
	}

	switch {
	case opts.mdOut:
		if _, err := io.WriteString(w, res.Markdown()); err != nil {
			return err
		}
	case opts.jsonOut:
		out, err := res.JSON()
		if err != nil {
			return err
		}
		if _, err := w.Write(out); err != nil {
			return err
		}
	default:
		if _, err := io.WriteString(w, res.Render()); err != nil {
			return err
		}
	}

	if opts.csvDir != "" {
		if err := os.MkdirAll(opts.csvDir, 0o755); err != nil {
			return err
		}
		for _, rep := range res.Reports {
			for _, s := range rep.Series {
				path := filepath.Join(opts.csvDir, s.Name+".csv")
				if err := os.WriteFile(path, []byte(s.CSV()), 0o644); err != nil {
					return err
				}
				// Notices go to stderr so -json/-md stdout stays parseable.
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
	}
	if opts.traceEvents != "" {
		if err := os.WriteFile(opts.traceEvents, tracer.Chrome(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", opts.traceEvents)
	}
	if opts.metricsOut != "" {
		data := tracer.MetricsCSV()
		if !strings.HasSuffix(opts.metricsOut, ".csv") {
			var err error
			if data, err = tracer.MetricsJSON(); err != nil {
				return err
			}
		}
		if err := os.WriteFile(opts.metricsOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", opts.metricsOut)
	}
	// The run summary — wall clock and simulation volume per scenario, and
	// the campaign pool's utilization — goes to stderr: it is profiling
	// telemetry, deliberately kept out of the deterministic stdout that
	// -json/-md consumers and the CI byte-diffs read.
	writeSummary(os.Stderr, res)
	return nil
}

// writeSummary renders the per-scenario cost table and the worker pool's
// wall-clock utilization. Sim events are deterministic (a pure function of
// the configuration); wall-clock columns are measurements and vary run to
// run.
func writeSummary(w io.Writer, res *pdr.CampaignResult) {
	fmt.Fprintf(w, "\n%-5s %14s %12s\n", "ID", "sim events", "wall [ms]")
	var events uint64
	var wall float64
	for _, rep := range res.Reports {
		fmt.Fprintf(w, "%-5s %14d %12.1f\n", rep.ID, rep.SimEvents, rep.WallMS)
		events += rep.SimEvents
		wall += rep.WallMS
	}
	fmt.Fprintf(w, "%-5s %14d %12.1f  (%d units on %d workers, %.1f ms elapsed)\n",
		"total", events, wall, res.Units, res.Workers,
		float64(res.Elapsed)/float64(time.Millisecond))
	for i, wc := range res.Pool {
		fmt.Fprintf(w, "worker %d: %d units, %.1f ms busy\n",
			i, wc.Tasks, float64(wc.Busy)/float64(time.Millisecond))
	}
}

// writeTraceOut persists the E16 arrival stream as a versioned trace file:
// the stream a -trace-in flag names (re-exported after the import round
// trip), or the one the campaign seed and platform generate.
func writeTraceOut(opts options) error {
	var tr pdr.Trace
	var err error
	if opts.traceIn != "" {
		data, rerr := os.ReadFile(opts.traceIn)
		if rerr != nil {
			return rerr
		}
		tr, err = pdr.ImportTrace(data)
	} else {
		tr, err = experiments.DiurnalTrace(experiments.Config{Seed: opts.seed, Platform: opts.platform})
	}
	if err != nil {
		return err
	}
	out, err := pdr.ExportTrace(tr)
	if err != nil {
		return err
	}
	return os.WriteFile(opts.traceOut, out, 0o644)
}

// scenarioInfo and platformInfo are the machine-readable registry rows
// `-list -json` emits; field order is stable so the output can be golden-
// tested and diffed.
type scenarioInfo struct {
	ID        string   `json:"id"`
	Aliases   []string `json:"aliases,omitempty"`
	Shards    int      `json:"shards"`
	Platforms []string `json:"platforms,omitempty"`
	Title     string   `json:"title"`
}

type platformInfo struct {
	Name    string `json:"name"`
	Board   string `json:"board"`
	Part    string `json:"part"`
	Variant bool   `json:"variant,omitempty"`
	Summary string `json:"summary"`
}

type listing struct {
	Scenarios []scenarioInfo `json:"scenarios"`
	Platforms []platformInfo `json:"platforms"`
}

// listScenariosJSON emits the registry as one stable JSON document. Shard
// counts and platform spans reflect the default configuration, exactly as
// the table listing does.
func listScenariosJSON(w io.Writer) error {
	cfg := experiments.Config{}
	var out listing
	for _, s := range pdr.Scenarios() {
		info := scenarioInfo{
			ID:      s.ID,
			Aliases: s.Aliases,
			Shards:  s.Shards(cfg),
			Title:   s.Title,
		}
		if s.Platforms != nil {
			info.Platforms = s.Platforms(cfg)
		}
		out.Scenarios = append(out.Scenarios, info)
	}
	for _, p := range pdr.Platforms() {
		out.Platforms = append(out.Platforms, platformInfo{
			Name:    p.Name,
			Board:   p.Board,
			Part:    p.Part,
			Variant: p.Variant,
			Summary: p.Summary,
		})
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

func listScenarios(w io.Writer) error {
	// Shard counts and platform spans reflect the default configuration —
	// the same plan a default campaign executes (grid overrides reshape
	// E11's segments, the -platform flag the single-platform scenarios).
	cfg := experiments.Config{}
	fmt.Fprintf(w, "%-4s %-9s %-7s %-26s %s\n", "ID", "alias", "shards", "platforms", "title")
	for _, s := range pdr.Scenarios() {
		alias := ""
		if len(s.Aliases) > 0 {
			alias = s.Aliases[0]
		}
		platforms := "campaign"
		if s.Platforms != nil {
			platforms = strings.Join(s.Platforms(cfg), ",")
		}
		if _, err := fmt.Fprintf(w, "%-4s %-9s %-7d %-26s %s\n", s.ID, alias, s.Shards(cfg), platforms, s.Title); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "(\"campaign\" = runs on the -platform selection)")
	fmt.Fprintf(w, "\nplatforms (-platform):\n%-22s %-20s %-9s %s\n", "name", "board", "part", "summary")
	for _, p := range pdr.Platforms() {
		name := p.Name
		if p.Variant {
			name += " *"
		}
		if _, err := fmt.Fprintf(w, "%-22s %-20s %-9s %s\n", name, p.Board, p.Part, p.Summary); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "(* = preset of another board)")
	return nil
}
