package main

// -compare: two sets of runs (two results.jsonl files), one verdict per
// workload and end-to-end metric against the benchmark's own bounds.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec := &record{}
		if err := json.Unmarshal(sc.Bytes(), rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// how the benchmark's contract measures spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median; 0 for
// fewer than two values, which have no spread to speak of.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge compares set b against set a for one metric. worse is how far
// b's median is from a's in the metric's bad direction, as a share of
// a's median.
func judge(def metricDef, a, b []float64) (v verdict, worse, widest float64) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if def.Better == "higher" {
		worse = -worse
	}
	widest = max(spread(a), spread(b))
	switch {
	case worse > def.Bound:
		return verdictRegressed, worse, widest
	case widest > def.Bound:
		return verdictUnresolved, worse, widest
	}
	return verdictOK, worse, widest
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any regressed. A run with failures regresses its
// workload outright.
func compareFiles(out io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	values := func(recs []*record, workload, metric string) (xs []float64, failed int) {
		for _, r := range recs {
			if r.Workload == workload && r.Trace == 0 {
				xs = append(xs, r.Metrics[metric].Value)
				failed += r.Failed
			}
		}
		return xs, failed
	}
	fmt.Fprintf(out, "%-24s %-12s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "a median", "b median", "worse", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, def := range endToEnd {
			xa, _ := values(a, w.name, def.Name)
			xb, failedB := values(b, w.name, def.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v, worse, widest := judge(def, xa, xb)
			if failedB > 0 {
				v = verdictRegressed
			}
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(out, "%-24s %-12s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s (n=%d,%d)\n",
				w.name, def.Name, median(xa), median(xb), 100*worse, 100*widest, 100*def.Bound, v, len(xa), len(xb))
		}
	}
	return regressed, nil
}
