// Command bench is the repository's standing benchmark: five workloads
// driven through the real path — cypherclient, loopback TCP,
// internal/server, cypher.Session, internal/core, plan/match/expr,
// internal/graph Store and WAL — with generated traffic, every result
// checked, and a second, traced pass that attributes time per layer from
// outside. See README.md.
//
//	go -C bench run . -workload served-read                 # end-to-end metrics
//	go -C bench run . -workload served-read -trace 1        # per-layer metrics
//	go -C bench run . -compare out/a/results.jsonl out/b/results.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one metric of the contract in ../BENCHMARK.json; a
// test keeps the two in step. Bound is the share of the parent's median
// by which an end-to-end metric may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	defaultScale   = 0.3 // 15k users, 60k FOLLOWS, 15k posts: what fits the driver's time cap
	defaultSeconds = 15
	smokeScale     = 0.02
	smokeSeconds   = 1
)

var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the layer metrics every workload's traced pass reports.
// Layers only some workloads enter (wire, codec, WAL) are printed with
// that workload and left out here: the contract wants every metric from
// every workload.
var perLayer = []metricDef{
	{Name: "entry_us", Unit: "us", Better: "lower"},
	{Name: "core_us", Unit: "us", Better: "lower"},
	{Name: "parse_us", Unit: "us", Better: "lower"},
	{Name: "plan_build_us", Unit: "us", Better: "lower"},
	{Name: "validate_us", Unit: "us", Better: "lower"},
	{Name: "commit_us", Unit: "us", Better: "lower"},
	{Name: "acquire_us", Unit: "us", Better: "lower"},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "stmt_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number. Samples is how many observations it
// summarises; Count marks a number that repeats exactly for a seed.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Count   bool    `json:"count,omitempty"`
}

// record is one run as written to results.jsonl: what -compare reads.
type record struct {
	Workload    string                 `json:"workload"`
	Trace       int                    `json:"trace"`
	Seed        int64                  `json:"seed"`
	Scale       float64                `json:"scale"`
	Seconds     float64                `json:"seconds"`
	Env         environment            `json:"env"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Diagnostics map[string]metricValue `json:"diagnostics,omitempty"`
	Errors      []string               `json:"errors,omitempty"`

	// The traced pass's budget: per statement class, each layer's median
	// self time, the rows' sum and the entry point's median they should
	// add up to.
	EntryPoint    string             `json:"entry_point,omitempty"`
	Budget        []budgetRow        `json:"budget,omitempty"`
	BudgetEntryUs map[string]float64 `json:"budget_entry_us,omitempty"`
	BudgetSumUs   map[string]float64 `json:"budget_sum_us,omitempty"`
}

type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
	Flush      string `json:"flush_policy"`
}

func currentEnv() environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Clients: numClients(),
		Flush: "served-mixed-durable: SyncAlways (fsync every commit), checkpoint every 4 MiB of log; others: in memory",
	}
}

func main() {
	var (
		cfg      config
		name     = flag.String("workload", "all", "workload to run, or all")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass")
		smoke    = flag.Bool("smoke", false, "quick self-check: scale 0.02, 1 s windows, every workload, both passes")
		compare  = flag.Bool("compare", false, "compare two results.jsonl files given as arguments")
		exitCode = 0
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "generator seed")
	flag.Float64Var(&cfg.scale, "scale", defaultScale, "graph size; 1 = 50k users, 200k FOLLOWS, 50k posts")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "measured window in seconds")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for results.jsonl, traces and the durable workload's data")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	ws := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		ws = []*workload{w}
	}
	traces := []int{*trace}
	if *smoke {
		cfg.scale, cfg.seconds, ws, traces = smokeScale, smokeSeconds, workloads, []int{0, 1}
	}
	if err := os.MkdirAll(cfg.outDir, 0o777); err != nil {
		fatal(err)
	}
	for _, w := range ws {
		for _, tr := range traces {
			rec, err := run(w, cfg, tr)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			if err := appendRecord(filepath.Join(cfg.outDir, "results.jsonl"), rec); err != nil {
				fatal(err)
			}
			printRecord(rec)
			if !rec.Correct {
				exitCode = 1
			}
		}
	}
	os.Exit(exitCode)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run executes one pass of one workload and assembles its record.
func run(w *workload, cfg config, trace int) (*record, error) {
	rec := &record{
		Workload: w.name, Trace: trace, Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds,
		Env: currentEnv(), Metrics: map[string]metricValue{}, Diagnostics: map[string]metricValue{},
	}
	var err error
	if trace == 0 {
		var m *measured
		if m, err = runMeasured(w, cfg); err == nil {
			m.fill(rec)
		}
	} else {
		var t *traced
		if t, err = runTraced(w, cfg); err == nil {
			t.fill(rec)
		}
	}
	if err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

func (m *measured) fill(rec *record) {
	t := m.tally
	rec.Attempted = t.attempted + m.end.checks
	rec.Failed = t.failed + len(m.end.failures)
	rec.Errors = append(t.errs, m.end.failures...)

	ms := func(ns []int64, q float64) metricValue {
		return metricValue{Value: quantile(ns, q) / 1e6, Unit: "ms", Samples: len(ns)}
	}
	unitNs := make([]int64, len(t.units))
	for i, u := range t.units {
		unitNs[i] = u.ns
	}
	statements := len(t.readNs) + len(t.writeNs)
	opsPerS, p50, p95 := fifths(t.units, m.start)
	rec.Metrics["ops_per_s"] = metricValue{Value: opsPerS, Unit: "1/s", Samples: statements}
	rec.Metrics["lat_p50_ms"] = metricValue{Value: p50, Unit: "ms", Samples: len(unitNs)}
	rec.Metrics["lat_p95_ms"] = metricValue{Value: p95, Unit: "ms", Samples: len(unitNs)}
	rec.Metrics["setup_s"] = metricValue{Value: median(m.setupSecs), Unit: "s", Samples: len(m.setupSecs)}

	// Over the whole window, not by fifths.
	d := rec.Diagnostics
	d["window_ops_per_s"] = metricValue{Value: float64(statements) / t.end.Sub(m.start).Seconds(), Unit: "1/s", Samples: statements}
	d["window_p50_ms"], d["window_p95_ms"] = ms(unitNs, 0.50), ms(unitNs, 0.95)
	d["lat_p99_ms"], d["lat_max_ms"] = ms(unitNs, 0.99), ms(unitNs, 1)
	if len(t.readNs) > 0 && len(t.writeNs) > 0 {
		d["read_p50_ms"], d["read_p95_ms"] = ms(t.readNs, 0.50), ms(t.readNs, 0.95)
		d["write_p50_ms"], d["write_p95_ms"] = ms(t.writeNs, 0.50), ms(t.writeNs, 0.95)
	}
	for class, ns := range t.classNs {
		d[class+"_p50_ms"] = ms(ns, 0.50)
	}
	d["failed_frac"] = metricValue{Value: float64(rec.Failed) / float64(rec.Attempted), Unit: "ratio", Samples: rec.Attempted}
	d["live_heap_mb"] = metricValue{Value: m.liveHeapMB, Unit: "MB"}
	d["num_gc"] = metricValue{Value: float64(m.gc.numGC), Unit: "count"}
	d["gc_pause_ms_total"] = metricValue{Value: m.gc.pauseMs, Unit: "ms"}
	if m.walStatus.Dir != "" {
		d["wal_checkpoints"] = metricValue{Value: float64(m.walStatus.Checkpoints), Unit: "count"}
		d["wal_records"] = metricValue{Value: float64(m.walStatus.Records), Unit: "count"}
	}
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRecord prints every metric by name with its unit and sample
// count, then — as the last line — the result object the driver reads.
func printRecord(rec *record) {
	e := rec.Env
	fmt.Printf("# %s trace=%d seed=%d scale=%g seconds=%g nproc=%d gomaxprocs=%d %s commit=%s clients=%d closed-loop\n",
		rec.Workload, rec.Trace, rec.Seed, rec.Scale, rec.Seconds, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Clients)
	fmt.Printf("# flush policy: %s\n", e.Flush)
	printMetrics := func(title string, ms map[string]metricValue) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("# %s\n", title)
		for _, n := range names {
			v := ms[n]
			note := ""
			if v.Samples > 0 {
				note = fmt.Sprintf("  n=%d", v.Samples)
			}
			if v.Count {
				note += "  (count)"
			}
			fmt.Printf("#   %-28s %14.4f %-6s%s\n", n, v.Value, v.Unit, note)
		}
	}
	printMetrics("metrics", rec.Metrics)
	printMetrics("diagnostics", rec.Diagnostics)
	printBudget(rec)
	for _, e := range rec.Errors {
		fmt.Printf("# FAILED %s\n", e)
	}
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]out{}}
	for n, v := range rec.Metrics {
		last.Metrics[n] = out{v.Value, v.Unit}
	}
	line, _ := json.Marshal(last) // plain numbers and strings: cannot fail
	fmt.Println(string(line))
}

// printBudget prints, per statement class, each layer's median self
// time; the rows should add up to the entry point's median.
func printBudget(rec *record) {
	class := ""
	for _, row := range rec.Budget {
		if row.Class != class {
			class = row.Class
			entry, sum := rec.BudgetEntryUs[class], rec.BudgetSumUs[class]
			fmt.Printf("# budget %s: %s median %.1f us, rows sum %.1f us (%.0f %%)\n", class, rec.EntryPoint, entry, sum, 100*sum/entry)
		}
		fmt.Printf("#   %-58s %12.1f us  %5.1f %%\n", row.Layer, row.SelfUs, 100*row.Share)
	}
}

// quantile is the nearest-rank q-quantile of ns, in nanoseconds.
func quantile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return float64(s[max(0, min(i, len(s)-1))])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
