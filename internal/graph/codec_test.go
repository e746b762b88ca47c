package graph

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/value"
)

func TestJSONRoundTrip(t *testing.T) {
	g := New()
	a := g.CreateNode([]string{"User", "Admin"}, value.Map{
		"id":    value.Int(89),
		"name":  value.String("Bob"),
		"score": value.Float(1.5),
		"ok":    value.Bool(true),
		"tags":  value.List{value.String("x"), value.Int(2), value.NullValue},
		"meta":  value.Map{"k": value.Int(1)},
	})
	b := g.CreateNode(nil, nil)
	if _, err := g.CreateRel(a.ID, b.ID, "ORDERED", value.Map{"w": value.Float(0.25)}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(g) != Fingerprint(g2) {
		t.Error("round trip changed the graph")
	}
	// IDs preserved exactly.
	if g2.Node(a.ID) == nil || g2.Node(b.ID) == nil {
		t.Error("ids not preserved")
	}
	// Counters resume above the maximum.
	n := g2.CreateNode(nil, nil)
	if n.ID <= b.ID {
		t.Errorf("id counter did not resume: %d", n.ID)
	}
	if err := g2.Validate(); err != nil {
		t.Error(err)
	}
}

func TestJSONSpecialFloats(t *testing.T) {
	g := New()
	g.CreateNode([]string{"F"}, value.Map{
		"nan":  value.Float(math.NaN()),
		"pinf": value.Float(math.Inf(1)),
		"ninf": value.Float(math.Inf(-1)),
	})
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n := g2.Node(g2.NodeIDs()[0])
	if !math.IsNaN(float64(prop(g2, n.Props, "nan").(value.Float))) {
		t.Error("NaN lost")
	}
	if !math.IsInf(float64(prop(g2, n.Props, "pinf").(value.Float)), 1) {
		t.Error("+Inf lost")
	}
	if !math.IsInf(float64(prop(g2, n.Props, "ninf").(value.Float)), -1) {
		t.Error("-Inf lost")
	}
}

func TestJSONRejectsCorrupt(t *testing.T) {
	cases := []string{
		`not json`,
		`{"nodes": [{"id": 0}]}`,            // bad id
		`{"nodes": [{"id": 1}, {"id": 1}]}`, // dup id
		`{"nodes": [{"id": 1}], "rels": [{"id": 1, "type": "T", "src": 1, "tgt": 9}]}`,                                             // dangling
		`{"nodes": [{"id": 1}], "rels": [{"id": 1, "type": "", "src": 1, "tgt": 1}]}`,                                              // no type
		`{"nodes": [{"id": 1}], "rels": [{"id": 0, "type": "T", "src": 1, "tgt": 1}]}`,                                             // bad rel id
		`{"nodes": [{"id": 1}], "rels": [{"id": 1, "type": "T", "src": 1, "tgt": 1}, {"id": 1, "type": "T", "src": 1, "tgt": 1}]}`, // dup rel
		`{"nodes": [{"id": 1, "props": {"x": {}}}]}`,                                                                               // malformed value
		`{"nodes": [{"id": 1, "props": {"x": null}}]}`,                                                                             // untagged null
		`{"nodes": [{"id": 1, "props": {"x": {"node": 1}}}]}`,                                                                      // entity property
		`{"nodes": [{"id": 1, "props": {"x": {"isList": true, "list": [{"path": {"nodes": [1], "rels": []}}]}}}]}`,                 // nested entity
	}
	for _, src := range cases {
		if _, err := ReadJSON(strings.NewReader(src)); err == nil {
			t.Errorf("ReadJSON(%q): expected error", src)
		}
	}
}

func TestJSONRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := New()
		for i := 0; i < 15; i++ {
			randomMutation(rng, g)
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if Fingerprint(g) != Fingerprint(g2) {
			t.Fatalf("trial %d: round trip changed the graph", trial)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := New()
	a := g.CreateNode([]string{"User"}, value.Map{"id": value.Int(1)})
	b := g.CreateNode([]string{"Product"}, nil)
	if _, err := g.CreateRel(a.ID, b.ID, "ORDERED", value.Map{"qty": value.Int(2)}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "figure"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", ":User", ":ORDERED", "->", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// TestJSONRefusesEntityProperties checks that a graph holding an entity
// reference as a property value does not serialize: the tagged codec can
// write one, but a snapshot could not read it back.
func TestJSONRefusesEntityProperties(t *testing.T) {
	for _, v := range []value.Value{value.Node{ID: 1}, value.List{value.Int(1), value.Rel{ID: 2}}, value.Map{"p": value.Path{Nodes: []int64{1}}}} {
		g := New()
		g.CreateNode(nil, value.Map{"x": v})
		if err := g.WriteJSON(&bytes.Buffer{}); err == nil {
			t.Errorf("property %v serialized", v)
		}
	}
}
