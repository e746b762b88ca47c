package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
