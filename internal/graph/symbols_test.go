package graph

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/value"
)

// Symbol ids are private to one graph's history: two histories that
// build the same graph while interning its names in different orders —
// one of them also interning a key in a statement it rolled back —
// must be indistinguishable by every comparison and every disk format.
func TestSymbolOrderIsInvisible(t *testing.T) {
	type history func(t *testing.T, st *Store)
	commit := func(t *testing.T, st *Store, body func(g *Graph, j *Journal)) {
		t.Helper()
		w := st.BeginWrite()
		body(w.Graph(), w.Journal())
		if _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	forward := func(t *testing.T, st *Store) {
		commit(t, st, func(g *Graph, j *Journal) {
			a := g.CreateNode([]string{"Person", "Admin"}, nil).ID
			must(g.SetNodeProp(a, "name", value.String("ann")))
			must(g.SetNodeProp(a, "age", value.Int(41)))
			b := g.CreateNode([]string{"Robot"}, nil).ID
			must(g.SetNodeProp(b, "serial", value.Int(7)))
			r, err := g.CreateRel(a, b, "OWNS", nil)
			must(err)
			must(g.SetRelProp(r.ID, "since", value.Int(2020)))
			g.CreateIndex("Person", "name")
		})
		commit(t, st, func(g *Graph, j *Journal) {
			must(g.AddLabel(2, "Admin"))
			must(g.SetNodeProp(1, "age", value.Int(42)))
		})
	}
	reverse := func(t *testing.T, st *Store) {
		commit(t, st, func(g *Graph, j *Journal) {
			a := g.CreateNode([]string{"Admin", "Person"}, nil).ID
			// A statement that interns a key and is rolled back: the
			// name stays in the table, the graph does not change.
			mark := j.Mark()
			must(g.SetNodeProp(a, "ghost", value.Int(1)))
			must(g.AddLabel(a, "Ghost"))
			j.RollbackTo(mark)
			must(g.SetNodeProp(a, "age", value.Int(41)))
			must(g.SetNodeProp(a, "name", value.String("ann")))
			b := g.CreateNode(nil, nil).ID
			_, err := g.CreateRel(a, b, "OWNS", value.Map{"since": value.Int(2020)})
			must(err)
			must(g.SetNodeProp(b, "serial", value.Int(7)))
			must(g.AddLabel(b, "Robot"))
			g.CreateIndex("Person", "name")
		})
		commit(t, st, func(g *Graph, j *Journal) {
			must(g.SetNodeProp(1, "age", value.Int(42)))
			must(g.AddLabel(2, "Admin"))
		})
	}
	run := func(h history) (*Graph, string) {
		dir := t.TempDir()
		st, wal, err := Recover(dir, Durability{Sync: SyncNever, CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		h(t, st)
		must(wal.Close())
		snap := st.Acquire()
		defer snap.Release()
		return snap.Graph(), dir
	}
	ga, dirA := run(forward)
	gb, dirB := run(reverse)

	ia, _ := ga.Sym("Person")
	ib, _ := gb.Sym("Person")
	if ia == ib {
		t.Fatal("the two histories interned Person under the same id; the test proves nothing")
	}
	if _, ok := gb.Sym("ghost"); !ok {
		t.Fatal("the rolled-back statement's key left the symbol table")
	}
	if err := Identical(ga, gb); err != nil {
		t.Fatalf("Identical: %v", err)
	}
	if !Isomorphic(ga, gb) {
		t.Fatal("not isomorphic")
	}
	save := func(g *Graph) []byte {
		var buf bytes.Buffer
		must(g.WriteJSON(&buf))
		return buf.Bytes()
	}
	if a, b := save(ga), save(gb); !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", a, b)
	}
	for _, c := range []struct {
		g   *Graph
		dir string
	}{{ga, dirA}, {gb, dirB}} {
		st, wal, err := Recover(c.dir, Durability{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		snap := st.Acquire()
		got := snap.Graph()
		snap.Release()
		must(wal.Close())
		if err := Identical(c.g, got); err != nil {
			t.Fatalf("recovered graph: %v", err)
		}
		if !bytes.Equal(save(c.g), save(got)) {
			t.Fatal("recovered graph saves different bytes")
		}
	}
}

// One Resolve cache word serves every goroutine evaluating an
// expression node, whichever graph each one reads: graphs whose tables
// number the name differently, or lack it, must each get their own
// answer however the goroutines interleave.
func TestResolveCacheSharedAcrossGraphs(t *testing.T) {
	a, b, c := New(), New(), New()
	a.CreateNode([]string{"K"}, value.Map{"x": value.Int(1)})
	b.CreateNode([]string{"L", "M"}, value.Map{"y": value.Int(1), "x": value.Int(2)})
	c.CreateNode([]string{"L"}, nil)
	wantA, _ := a.Sym("x")
	wantB, _ := b.Sym("x")
	if wantA == wantB {
		t.Fatal("x has the same id in both graphs; the test proves nothing")
	}
	var word atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if id, ok := a.Resolve("x", &word); !ok || id != wantA {
					t.Errorf("a: Resolve(x) = %d, %v; want %d", id, ok, wantA)
					return
				}
				if id, ok := b.Resolve("x", &word); !ok || id != wantB {
					t.Errorf("b: Resolve(x) = %d, %v; want %d", id, ok, wantB)
					return
				}
				if _, ok := c.Resolve("x", &word); ok {
					t.Error("c: Resolve(x) found a key c never interned")
					return
				}
			}
		}()
	}
	wg.Wait()
}
