// Command bench-record turns the two result sets of a paired benchmark
// run (`make bench-compare`) into one JSON record of the comparison: the
// environment, the host (CPU model and clock, and the load average when
// the paired runs started and ended), both commits, and per workload and
// gated end-to-end metric the per-run values of both sides, their
// medians and quartiles, how many seed pairs the change won, and the
// verdict of the benchmark's own judge (regressed, unresolved or ok
// against the metric's bound in BENCHMARK.json). It also records the
// ungated diagnostics that name which statement or which memory figure
// moved — every `*_p50_ms` (per statement class and window), live_heap_mb
// and num_gc — with both sides' per-run values, medians and the
// change/base ratio of the medians, and no verdict.
//
//	go run ./cmd/bench-record -base <rev> -change <rev> -out BENCH_<n>.json \
//	    bench-compare-out/base/results.jsonl bench-compare-out/change/results.jsonl
//
// It runs from the repository root, where it reads the gated metrics
// and their bounds from BENCHMARK.json. `make bench-record PR=<n>
// BASE=<rev>` runs it on the last bench-compare's output.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

type metricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type metrics map[string]struct{ Value float64 }

type run struct {
	Workload    string         `json:"workload"`
	Trace       int            `json:"trace"`
	Seed        int64          `json:"seed"`
	Env         map[string]any `json:"env"`
	Correct     bool           `json:"correct"`
	Failed      int            `json:"failed"`
	Metrics     metrics        `json:"metrics"`
	Diagnostics metrics        `json:"diagnostics"`
}

// document is one BENCH_*.json record. Host and Diagnostics are absent
// from the records written before they existed, which still parse.
type document struct {
	Env         map[string]any `json:"env"`
	Host        *host          `json:"host,omitempty"`
	Base        string         `json:"base_commit"`
	Change      string         `json:"change_commit"`
	Failed      [2]int         `json:"failed"`
	Correct     bool           `json:"correct"`
	Comparisons []comparison   `json:"comparisons"`
	Diagnostics []diagnostic   `json:"diagnostics,omitempty"`
}

// host tells apart machines whose benchmark environment blocks agree
// (the same core count and Go version): the CPU model and clock from
// /proc/cpuinfo, read when the record is written, and the load average
// bench-compare saved when the paired runs started and ended. A field
// the host cannot supply is empty.
type host struct {
	CPUModel     string  `json:"cpu_model"`
	CPUMHz       float64 `json:"cpu_mhz"`
	LoadAvgStart string  `json:"loadavg_start"`
	LoadAvgEnd   string  `json:"loadavg_end"`
}

// readHost reads the host's CPU and the load averages bench-compare
// saved in dir, the directory of the two result sets.
func readHost(dir string) *host {
	h := &host{LoadAvgStart: readLine(filepath.Join(dir, "loadavg-start")), LoadAvgEnd: readLine(filepath.Join(dir, "loadavg-end"))}
	for _, line := range strings.Split(readLine("/proc/cpuinfo"), "\n") {
		k, v, _ := strings.Cut(line, ":")
		switch k, v = strings.TrimSpace(k), strings.TrimSpace(v); {
		case k == "model name" && h.CPUModel == "":
			h.CPUModel = v
		case k == "cpu MHz" && h.CPUMHz == 0:
			h.CPUMHz, _ = strconv.ParseFloat(v, 64)
		}
	}
	return h
}

// readLine returns a file's contents without the trailing newline, or
// "" when it cannot be read.
func readLine(path string) string {
	raw, _ := os.ReadFile(path)
	return strings.TrimSpace(string(raw))
}

type side struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound"`
	Seeds    []int64 `json:"seeds"`
	Base     side    `json:"base"`
	Change   side    `json:"change"`
	// Wins counts the seed pairs in which the change did better.
	Wins int `json:"wins"`
	// Worse is how far the change's median lies from the base's in the
	// metric's bad direction, as a share of the base's median.
	Worse float64 `json:"worse"`
	// Clears reports whether the medians differ by more than the base's
	// interquartile distance, in the change's favour.
	Clears  bool   `json:"clears_base_spread"`
	Verdict string `json:"verdict"`
}

// diagnostic is one ungated diagnostic of one workload, paired by seed
// like a comparison but judged by nothing. Ratio is the change's median
// over the base's, absent when the base's median is zero.
type diagnostic struct {
	Workload string   `json:"workload"`
	Metric   string   `json:"metric"`
	Seeds    []int64  `json:"seeds"`
	Base     side     `json:"base"`
	Change   side     `json:"change"`
	Ratio    *float64 `json:"ratio,omitempty"`
}

// recorded reports whether a diagnostic goes into the record: the p50
// latencies, per statement class and over the window, and the heap and
// collection counts.
func recorded(name string) bool {
	return strings.HasSuffix(name, "_p50_ms") || name == "live_heap_mb" || name == "num_gc"
}

func main() {
	base := flag.String("base", "", "base commit")
	change := flag.String("change", "", "change commit")
	out := flag.String("out", "", "output file")
	flag.Parse()
	if flag.NArg() != 2 || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: bench-record -base <rev> -change <rev> -out file base/results.jsonl change/results.jsonl")
		os.Exit(2)
	}
	if err := record(*base, *change, *out, flag.Arg(0), flag.Arg(1)); err != nil {
		fmt.Fprintln(os.Stderr, "bench-record:", err)
		os.Exit(1)
	}
}

// record writes the comparison of the runs in basePath and changePath,
// over the end-to-end metrics BENCHMARK.json gates, to out.
func record(baseRev, changeRev, out, basePath, changePath string) error {
	var decl struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return err
	}
	a, err := readRuns(basePath)
	if err != nil {
		return err
	}
	b, err := readRuns(changePath)
	if err != nil {
		return err
	}
	doc := document{Host: readHost(filepath.Dir(filepath.Dir(basePath))), Base: baseRev, Change: changeRev, Correct: true}
	var workloads []string
	for _, r := range append(a, b...) {
		if !slices.Contains(workloads, r.Workload) {
			workloads = append(workloads, r.Workload)
		}
		doc.Env = r.Env
		doc.Correct = doc.Correct && r.Correct
	}
	for _, r := range a {
		doc.Failed[0] += r.Failed
	}
	for _, r := range b {
		doc.Failed[1] += r.Failed
	}
	for _, w := range workloads {
		for _, def := range decl.EndToEnd {
			if c, ok := compare(def, w, a, b); ok {
				doc.Comparisons = append(doc.Comparisons, c)
			}
		}
		doc.Diagnostics = append(doc.Diagnostics, diagnostics(w, a, b)...)
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(enc, '\n'), 0o644)
}

// pair collects metric name of workload w, read through pick, from both
// sides' runs paired by seed, with the change side's failed operations
// in those runs.
func pair(w, name string, a, b []run, pick func(run) metrics) (seeds []int64, base, change side, failed int) {
	byseed := map[int64]float64{}
	for _, r := range a {
		if m, ok := pick(r)[name]; ok && r.Workload == w {
			byseed[r.Seed] = m.Value
		}
	}
	for _, r := range b {
		m, ok := pick(r)[name]
		v, paired := byseed[r.Seed]
		if !ok || !paired || r.Workload != w {
			continue
		}
		failed += r.Failed
		seeds = append(seeds, r.Seed)
		base.Values = append(base.Values, v)
		change.Values = append(change.Values, m.Value)
	}
	if len(seeds) > 0 {
		base.fill()
		change.fill()
	}
	return seeds, base, change, failed
}

// diagnostics pairs every recorded diagnostic of workload w, in name
// order.
func diagnostics(w string, a, b []run) []diagnostic {
	var names []string
	for _, r := range a {
		for name := range r.Diagnostics {
			if r.Workload == w && recorded(name) && !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
	}
	slices.Sort(names)
	var out []diagnostic
	for _, name := range names {
		d := diagnostic{Workload: w, Metric: name}
		d.Seeds, d.Base, d.Change, _ = pair(w, name, a, b, func(r run) metrics { return r.Diagnostics })
		if len(d.Seeds) == 0 {
			continue
		}
		if d.Base.Median != 0 {
			ratio := d.Change.Median / d.Base.Median
			d.Ratio = &ratio
		}
		out = append(out, d)
	}
	return out
}

// compare pairs the two sides' runs of workload w by seed and judges
// them as the benchmark's -compare does.
func compare(def metricDef, w string, a, b []run) (comparison, bool) {
	c := comparison{Workload: w, Metric: def.Name, Better: def.Better, Bound: def.Bound}
	var failed int
	c.Seeds, c.Base, c.Change, failed = pair(w, def.Name, a, b, func(r run) metrics { return r.Metrics })
	if len(c.Seeds) == 0 {
		return c, false
	}
	for i, v := range c.Change.Values {
		if base := c.Base.Values[i]; (def.Better == "higher") == (v > base) && v != base {
			c.Wins++
		}
	}
	c.Worse = (c.Change.Median - c.Base.Median) / c.Base.Median
	if def.Better == "higher" {
		c.Worse = -c.Worse
	}
	c.Clears = -c.Worse*c.Base.Median > c.Base.Q3-c.Base.Q1
	widest := max(c.Base.spread(), c.Change.spread())
	switch {
	case c.Worse > def.Bound || failed > 0: // a failed operation regresses the workload outright
		c.Verdict = "regressed"
	case widest > def.Bound:
		c.Verdict = "unresolved"
	default:
		c.Verdict = "ok"
	}
	return c, true
}

func (s *side) fill() {
	v := slices.Clone(s.Values)
	slices.Sort(v)
	n := len(v)
	s.Median = v[n/2]
	if n%2 == 0 {
		s.Median = (v[n/2-1] + v[n/2]) / 2
	}
	// The exclusive method of Python's statistics.quantiles(n=4), as the
	// benchmark's judge computes it.
	at := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		if n == 1 {
			return v[0]
		}
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	s.Q1, s.Q3 = at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func (s *side) spread() float64 {
	if len(s.Values) < 2 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// readRuns reads the untraced runs of a results.jsonl file.
func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			runs = append(runs, r)
		}
	}
	return runs, sc.Err()
}
