package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The same seed must generate the same load statements and op streams,
// byte for byte, and another seed must not.
func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, other := streamHash(w, 1, 0.02, 300), streamHash(w, 1, 0.02, 300), streamHash(w, 2, 0.02, 300)
		if a != b {
			t.Errorf("%s: seed 1 hashed to %x and then %x", w.name, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 both hashed to %x", w.name, a)
		}
	}
}

// Every workload, both passes, every check, at a size that takes
// seconds; then the layer predictions that do not depend on the machine.
func TestSmoke(t *testing.T) {
	cfg := config{seed: 1, scale: smokeScale, seconds: smokeSeconds, outDir: t.TempDir()}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			rec, err := run(w, cfg, trace)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Attempted == 0 {
				t.Errorf("%s trace %d: %d of %d failed: %v", w.name, trace, rec.Failed, rec.Attempted, rec.Errors)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(rec.Metrics), len(defs))
			}
			for _, def := range defs {
				if v, ok := rec.Metrics[def.Name]; !ok || v.Unit != def.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace %d: metric %s is %+v", w.name, trace, def.Name, v)
				}
			}
			if trace == 0 {
				continue
			}
			hit := rec.Metrics["stmt_cache_hit_ratio"].Value
			switch w.name {
			case "served-read":
				if hit < 0.99 {
					t.Errorf("served-read: statement cache hit ratio %v, want >= 0.99", hit)
				}
			case "served-adhoc-read":
				if hit > 0.01 {
					t.Errorf("served-adhoc-read: statement cache hit ratio %v, want <= 0.01", hit)
				}
			}
			for _, name := range []string{"wire_us", "codec_us"} {
				if _, ok := rec.Diagnostics[name]; ok != w.served {
					t.Errorf("%s: %s present = %v, want %v", w.name, name, ok, w.served)
				}
			}
			for _, name := range []string{"wal_append_us", "wal_fsync_us", "wal_bytes_per_write", "recover_ms", "checkpoint_ms"} {
				if _, ok := rec.Diagnostics[name]; ok != w.durable {
					t.Errorf("%s: %s present = %v, want %v", w.name, name, ok, w.durable)
				}
			}
			for class, entry := range rec.BudgetEntryUs {
				if sum := rec.BudgetSumUs[class]; entry <= 0 || sum <= 0 {
					t.Errorf("%s: budget of %s sums to %v us against an entry median of %v us", w.name, class, sum, entry)
				}
			}
		}
	}
}

// The program and ../BENCHMARK.json must describe the same benchmark.
func TestContractMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, program has %s: %s", i, c.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end is %+v, program has %+v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer is %+v, program has %+v", c.PerLayer, perLayer)
	}
	for _, def := range endToEnd {
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 are %v and %v, want 2.75 and 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1, 2 are %v and %v, want 0.75 and 2.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{70, 130, 100, 60, 140, 100, 75, 125, 100, 100}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"same", lower, steady, steady, verdictOK},
		{"slower within bound", lower, steady, scaled(1.08), verdictOK},
		{"slower beyond bound", lower, steady, scaled(1.15), verdictRegressed},
		{"faster", lower, steady, scaled(0.5), verdictOK},
		{"throughput down", higher, steady, scaled(0.85), verdictRegressed},
		{"throughput up", higher, steady, scaled(1.5), verdictOK},
		{"too noisy to tell", lower, wide, steady, verdictUnresolved},
	} {
		if got, _, _ := judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
