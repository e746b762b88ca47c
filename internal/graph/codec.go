package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/tagjson"
	"repro/internal/value"
)

// This file implements a JSON snapshot format for property graphs, so
// databases can be persisted and the experiment figures exported. The
// format is stable and human-readable:
//
//	{
//	  "nodes": [{"id": 1, "labels": ["User"], "props": {"id": {"int": 89}}}],
//	  "rels":  [{"id": 1, "type": "ORDERED", "src": 1, "tgt": 2, "props": {}}]
//	}
//
// Property values carry explicit type tags so integers and floats
// round-trip exactly (a bare JSON number would not); the tagged form is
// internal/tagjson's.

// propValue is one property value of a snapshot. It is written and
// read by the engine's tagged-JSON value codec (internal/tagjson), which
// the wire protocol shares; entity references are not property values,
// so their tags are refused in both directions.
type propValue struct{ v value.Value }

// MarshalJSON implements json.Marshaler.
func (p propValue) MarshalJSON() ([]byte, error) {
	return tagjson.Append(nil, p.v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *propValue) UnmarshalJSON(data []byte) error {
	s := tagjson.NewScanner(data)
	v, err := s.Value()
	if err == nil {
		err = s.End()
	}
	if err == nil {
		err = checkStorable(v)
	}
	if err != nil {
		return fmt.Errorf("graph: malformed serialized value: %w", err)
	}
	p.v = v
	return nil
}

// checkStorable refuses entity references, at any depth, as property
// values.
func checkStorable(v value.Value) error {
	switch x := v.(type) {
	case value.Node, value.Rel, value.Path:
		return fmt.Errorf("graph: cannot serialize %s property", v.Kind())
	case value.List:
		for _, el := range x {
			if err := checkStorable(el); err != nil {
				return err
			}
		}
	case value.Map:
		for _, el := range x {
			if err := checkStorable(el); err != nil {
				return err
			}
		}
	}
	return nil
}

// props converts a property map for a snapshot.
func (g *Graph) props(in Props) (map[string]propValue, error) {
	out := make(map[string]propValue, len(in))
	for _, p := range in {
		if err := checkStorable(p.Val); err != nil {
			return nil, err
		}
		out[g.SymName(p.Key)] = propValue{p.Val}
	}
	return out, nil
}

type jsonNode struct {
	ID     int64                `json:"id"`
	Labels []string             `json:"labels"`
	Props  map[string]propValue `json:"props"`
}

type jsonRel struct {
	ID    int64                `json:"id"`
	Type  string               `json:"type"`
	Src   int64                `json:"src"`
	Tgt   int64                `json:"tgt"`
	Props map[string]propValue `json:"props"`
}

type jsonIndex struct {
	Label string `json:"label"`
	Prop  string `json:"prop"`
}

type jsonGraph struct {
	Nodes   []jsonNode  `json:"nodes"`
	Rels    []jsonRel   `json:"rels"`
	Indexes []jsonIndex `json:"indexes,omitempty"`
	// NextNode/NextRel persist the id counters so recovery resumes
	// allocation above every id ever handed out, including ids whose
	// entities no longer exist (ids are never reused). Absent in
	// snapshots from before durability; readers fall back to the
	// maximum id seen.
	NextNode int64 `json:"nextNode,omitempty"`
	NextRel  int64 `json:"nextRel,omitempty"`
	// Epoch is the store epoch a durability checkpoint covers; plain
	// Save snapshots omit it.
	Epoch int64 `json:"epoch,omitempty"`
}

// maxEntityID bounds the entity ids (and id counters) any decoder —
// JSON snapshot or WAL record — will accept. The id maps of cow.go
// grow their shard directory proportionally to the largest id, so a
// corrupt or hostile file claiming id 2^60 would otherwise make the
// reader attempt an enormous allocation. 2^28 entities is far beyond
// what fits in memory anyway.
const maxEntityID = 1 << 28

// WriteJSON serializes the graph to w in the stable snapshot format.
func (g *Graph) WriteJSON(w io.Writer) error {
	return writeJSONState(w, g, 0)
}

// writeJSONState is WriteJSON plus the store epoch, for durability
// checkpoints.
func writeJSONState(w io.Writer, g *Graph, epoch int64) error {
	out := jsonGraph{
		Nodes:    []jsonNode{},
		Rels:     []jsonRel{},
		NextNode: int64(g.nextNode),
		NextRel:  int64(g.nextRel),
		Epoch:    epoch,
	}
	for _, id := range g.NodeIDs() {
		n := g.Node(id)
		p, err := g.props(n.Props)
		if err != nil {
			return err
		}
		out.Nodes = append(out.Nodes, jsonNode{ID: int64(id), Labels: g.LabelNames(n), Props: p})
	}
	for _, id := range g.RelIDs() {
		r := g.Rel(id)
		p, err := g.props(r.Props)
		if err != nil {
			return err
		}
		out.Rels = append(out.Rels, jsonRel{ID: int64(id), Type: g.TypeName(r), Src: int64(r.Src), Tgt: int64(r.Tgt), Props: p})
	}
	for _, k := range g.Indexes() {
		out.Indexes = append(out.Indexes, jsonIndex{Label: k.Label, Prop: k.Prop})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON deserializes a snapshot into a fresh graph. Entity ids are
// preserved; the id counters resume above the maximum seen (or the
// persisted counters, whichever is larger).
func ReadJSON(r io.Reader) (*Graph, error) {
	g, _, err := readJSONState(r)
	return g, err
}

// readJSONState is ReadJSON plus the persisted store epoch (0 for
// plain Save snapshots), for durability recovery.
func readJSONState(r io.Reader) (*Graph, int64, error) {
	var in jsonGraph
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, 0, fmt.Errorf("graph: decode snapshot: %w", err)
	}
	g := New()
	for _, jn := range in.Nodes {
		if jn.ID <= 0 || jn.ID > maxEntityID {
			return nil, 0, fmt.Errorf("graph: invalid node id %d", jn.ID)
		}
		if g.HasNode(NodeID(jn.ID)) {
			return nil, 0, fmt.Errorf("graph: duplicate node id %d", jn.ID)
		}
		g.restoreNode(&Node{ID: NodeID(jn.ID), Labels: g.labelsOf(jn.Labels), Props: g.propsOf(propMap(jn.Props))})
		if NodeID(jn.ID) > g.nextNode {
			g.nextNode = NodeID(jn.ID)
		}
	}
	for _, jr := range in.Rels {
		if jr.ID <= 0 || jr.ID > maxEntityID {
			return nil, 0, fmt.Errorf("graph: invalid relationship id %d", jr.ID)
		}
		if g.HasRel(RelID(jr.ID)) {
			return nil, 0, fmt.Errorf("graph: duplicate relationship id %d", jr.ID)
		}
		if jr.Type == "" {
			return nil, 0, fmt.Errorf("graph: relationship %d has no type", jr.ID)
		}
		if !g.HasNode(NodeID(jr.Src)) || !g.HasNode(NodeID(jr.Tgt)) {
			return nil, 0, fmt.Errorf("graph: relationship %d has dangling endpoints", jr.ID)
		}
		g.restoreRel(&Rel{ID: RelID(jr.ID), Type: g.intern(jr.Type), Src: NodeID(jr.Src), Tgt: NodeID(jr.Tgt), Props: g.propsOf(propMap(jr.Props))})
		if RelID(jr.ID) > g.nextRel {
			g.nextRel = RelID(jr.ID)
		}
	}
	// Index definitions round-trip; contents are rebuilt by the scan in
	// CreateIndex (the snapshot carries only the schema, not buckets).
	for _, ji := range in.Indexes {
		if ji.Label == "" || ji.Prop == "" {
			return nil, 0, fmt.Errorf("graph: malformed index definition %q(%q)", ji.Label, ji.Prop)
		}
		g.CreateIndex(ji.Label, ji.Prop)
	}
	// Persisted id counters (if any) win over the maximum id seen: ids
	// are never reused, even across deletion of their entities.
	if in.NextNode < 0 || in.NextNode > maxEntityID || in.NextRel < 0 || in.NextRel > maxEntityID || in.Epoch < 0 {
		return nil, 0, fmt.Errorf("graph: snapshot counters out of range")
	}
	if NodeID(in.NextNode) > g.nextNode {
		g.nextNode = NodeID(in.NextNode)
	}
	if RelID(in.NextRel) > g.nextRel {
		g.nextRel = RelID(in.NextRel)
	}
	return g, in.Epoch, nil
}

// WriteDOT renders the graph in Graphviz DOT format, suitable for
// visualizing the paper's figures (cmd/experiments -dot uses it).
func (g *Graph) WriteDOT(w io.Writer, title string) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=LR;\n  node [shape=ellipse];\n", title); err != nil {
		return err
	}
	for _, id := range g.NodeIDs() {
		n := g.Node(id)
		label := fmt.Sprintf("%d", id)
		if len(n.Labels) > 0 {
			label += "\n:" + strings.Join(g.LabelNames(n), ":")
		}
		if len(n.Props) > 0 {
			label += "\n" + g.PropMap(n.Props).String()
		}
		if _, err := fmt.Fprintf(w, "  n%d [label=%q];\n", id, label); err != nil {
			return err
		}
	}
	for _, id := range g.RelIDs() {
		r := g.Rel(id)
		label := ":" + g.TypeName(r)
		if len(r.Props) > 0 {
			label += " " + g.PropMap(r.Props).String()
		}
		if _, err := fmt.Fprintf(w, "  n%d -> n%d [label=%q];\n", r.Src, r.Tgt, label); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// propMap unwraps decoded property values.
func propMap(in map[string]propValue) value.Map {
	m := make(value.Map, len(in))
	for k, p := range in {
		m[k] = p.v
	}
	return m
}
