package script

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
)

// TestCorpusExecutorSweep replays every script in scripts/ serially, in
// a budget=1 spill-forced run, and morsel-parallel at degrees 2 and 8
// (plus a spill-forced parallel run). All must produce identical
// per-statement result tables and identical final graphs — the
// end-to-end equivalence sweep for the spilling barriers and the
// exchange operators. Parallelism is set explicitly because CI machines
// may report GOMAXPROCS=1, which would silently skip the parallel
// paths.
func TestCorpusExecutorSweep(t *testing.T) {
	manifest := map[string]core.Dialect{
		"paper_walkthrough.cypher": core.DialectCypher9,
		"social.cypher":            core.DialectRevised,
		"inventory.cypher":         core.DialectRevised,
		"expressions.cypher":       core.DialectRevised,
	}
	configs := []struct {
		name string
		cfg  func(d core.Dialect) core.Config
	}{
		{"serial", func(d core.Dialect) core.Config {
			return core.Config{Dialect: d, Parallelism: 1}
		}},
		{"serial-budget1", func(d core.Dialect) core.Config {
			return core.Config{Dialect: d, Parallelism: 1, MemoryBudget: 1}
		}},
		{"par2", func(d core.Dialect) core.Config {
			return core.Config{Dialect: d, Parallelism: 2}
		}},
		{"par8", func(d core.Dialect) core.Config {
			return core.Config{Dialect: d, Parallelism: 8}
		}},
		{"par8-budget1", func(d core.Dialect) core.Config {
			return core.Config{Dialect: d, Parallelism: 8, MemoryBudget: 1}
		}},
	}
	dir := filepath.Join("..", "..", "scripts")
	for name, dialect := range manifest {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			var baseTables []string
			var basePrint string
			for ci, c := range configs {
				g := graph.New()
				eng := core.NewEngine(c.cfg(dialect))
				results, err := Run(eng, g, string(src), nil)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				var tables []string
				for _, r := range results {
					if r.Table != nil {
						tables = append(tables, r.Table.String())
					} else {
						tables = append(tables, "")
					}
				}
				print := graph.Fingerprint(g)
				if ci == 0 {
					baseTables, basePrint = tables, print
					continue
				}
				if len(tables) != len(baseTables) {
					t.Fatalf("%s: %d statements vs %d under %s", c.name, len(tables), len(baseTables), configs[0].name)
				}
				for i := range tables {
					if tables[i] != baseTables[i] {
						t.Errorf("%s: statement %d table divergence:\n%s\nvs %s:\n%s",
							c.name, i, tables[i], configs[0].name, baseTables[i])
					}
				}
				if print != basePrint {
					t.Errorf("%s: final graph diverges from %s", c.name, configs[0].name)
				}
			}
			if live := plan.SpillFilesLive(); live != 0 {
				t.Errorf("%d spill files still live after sweep", live)
			}
		})
	}
}
