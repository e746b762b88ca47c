package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestOldRecordsParse decodes every BENCH_*.json at the repository root
// into today's document, rejecting unknown fields: the host block is an
// addition the records written before it lack, not a change to what
// they hold.
func TestOldRecordsParse(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_*.json records found (%v)", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var r document
		if err := dec.Decode(&r); err != nil {
			t.Errorf("%s: %v", p, err)
		} else if len(r.Comparisons) == 0 {
			t.Errorf("%s: no comparisons", p)
		}
	}
}

// TestReadHostLoadAverages reads the load averages bench-compare saves
// beside the two result sets, and tolerates their absence. The CPU
// fields depend on the host and are logged.
func TestReadHostLoadAverages(t *testing.T) {
	dir := t.TempDir()
	if h := readHost(dir); h.LoadAvgStart != "" || h.LoadAvgEnd != "" {
		t.Errorf("no saved load averages read as %q and %q", h.LoadAvgStart, h.LoadAvgEnd)
	}
	for name, v := range map[string]string{"loadavg-start": "0.50 0.40 0.30 1/100 7", "loadavg-end": "1.00 0.60 0.35 2/101 9"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(v+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	h := readHost(dir)
	if h.LoadAvgStart != "0.50 0.40 0.30 1/100 7" || h.LoadAvgEnd != "1.00 0.60 0.35 2/101 9" {
		t.Errorf("load averages %q and %q", h.LoadAvgStart, h.LoadAvgEnd)
	}
	// Not every cpuinfo names the model (arm64 Linux lists implementer
	// and part instead), so only one that does must yield it.
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil && bytes.Contains(info, []byte("model name")) && h.CPUModel == "" {
		t.Error("/proc/cpuinfo names a model but none was read")
	}
	t.Logf("host: %+v", *h)
}

// TestDiagnosticsPairedWithoutVerdict pairs the recorded diagnostics of
// one workload by seed: the p50 latencies, live_heap_mb and num_gc, in
// name order, with their medians and the change/base ratio, and leaves
// out other diagnostics, other workloads and a ratio over a zero base.
func TestDiagnosticsPairedWithoutVerdict(t *testing.T) {
	runOf := func(w string, seed int64, vals map[string]float64) run {
		r := run{Workload: w, Seed: seed, Diagnostics: metrics{}}
		for k, v := range vals {
			r.Diagnostics[k] = struct{ Value float64 }{v}
		}
		return r
	}
	a := []run{
		runOf("w", 1, map[string]float64{"scan_p50_ms": 2, "live_heap_mb": 10, "num_gc": 0, "gc_pause_ms_total": 1}),
		runOf("w", 2, map[string]float64{"scan_p50_ms": 4, "live_heap_mb": 12, "num_gc": 0}),
		runOf("other", 1, map[string]float64{"other_p50_ms": 1}),
	}
	b := []run{
		runOf("w", 2, map[string]float64{"scan_p50_ms": 3, "live_heap_mb": 12, "num_gc": 1}),
		runOf("w", 1, map[string]float64{"scan_p50_ms": 1, "live_heap_mb": 10, "num_gc": 1}),
	}
	got := diagnostics("w", a, b)
	var names []string
	for _, d := range got {
		names = append(names, d.Metric)
	}
	if want := []string{"live_heap_mb", "num_gc", "scan_p50_ms"}; !slices.Equal(names, want) {
		t.Fatalf("diagnostics %v, want %v", names, want)
	}
	scan := got[2]
	if !slices.Equal(scan.Seeds, []int64{2, 1}) || !slices.Equal(scan.Base.Values, []float64{4, 2}) || !slices.Equal(scan.Change.Values, []float64{3, 1}) {
		t.Errorf("scan_p50_ms paired as seeds %v, base %v, change %v", scan.Seeds, scan.Base.Values, scan.Change.Values)
	}
	if scan.Base.Median != 3 || scan.Change.Median != 2 || scan.Ratio == nil || *scan.Ratio != 2.0/3 {
		t.Errorf("scan_p50_ms medians %v/%v, ratio %v", scan.Base.Median, scan.Change.Median, scan.Ratio)
	}
	if got[1].Ratio != nil {
		t.Errorf("num_gc over a zero base has ratio %v", *got[1].Ratio)
	}
	if _, err := json.Marshal(document{Diagnostics: got}); err != nil {
		t.Error(err)
	}
}
