// Command bench-record turns the two result sets of a paired benchmark
// run (`make bench-compare`) into one JSON record of the comparison: the
// environment, both commits, and per workload and gated end-to-end
// metric the per-run values of both sides, their medians and quartiles,
// how many seed pairs the change won, and the verdict of the
// benchmark's own judge (regressed, unresolved or ok against the
// metric's bound in BENCHMARK.json).
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
	"slices"
)

type metricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type run struct {
	Workload string                             `json:"workload"`
	Trace    int                                `json:"trace"`
	Seed     int64                              `json:"seed"`
	Env      map[string]any                     `json:"env"`
	Correct  bool                               `json:"correct"`
	Failed   int                                `json:"failed"`
	Metrics  map[string]struct{ Value float64 } `json:"metrics"`
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
	doc := struct {
		Env         map[string]any `json:"env"`
		Base        string         `json:"base_commit"`
		Change      string         `json:"change_commit"`
		Failed      [2]int         `json:"failed"`
		Correct     bool           `json:"correct"`
		Comparisons []comparison   `json:"comparisons"`
	}{Base: baseRev, Change: changeRev, Correct: true}
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
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(enc, '\n'), 0o644)
}

// compare pairs the two sides' runs of workload w by seed and judges
// them as the benchmark's -compare does.
func compare(def metricDef, w string, a, b []run) (comparison, bool) {
	c := comparison{Workload: w, Metric: def.Name, Better: def.Better, Bound: def.Bound}
	failed := 0
	byseed := map[int64]float64{}
	for _, r := range a {
		if m, ok := r.Metrics[def.Name]; ok && r.Workload == w {
			byseed[r.Seed] = m.Value
		}
	}
	for _, r := range b {
		m, ok := r.Metrics[def.Name]
		base, paired := byseed[r.Seed]
		if !ok || !paired || r.Workload != w {
			continue
		}
		failed += r.Failed
		c.Seeds = append(c.Seeds, r.Seed)
		c.Base.Values = append(c.Base.Values, base)
		c.Change.Values = append(c.Change.Values, m.Value)
		if (def.Better == "higher") == (m.Value > base) && m.Value != base {
			c.Wins++
		}
	}
	if len(c.Seeds) == 0 {
		return c, false
	}
	c.Base.fill()
	c.Change.fill()
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
