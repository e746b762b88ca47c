package graph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// Isomorphic reports whether two property graphs are equal up to id
// renaming: there is a bijection between node sets preserving labels and
// properties, and a bijection between relationship sets preserving type,
// properties, and (mapped) endpoints. This is the notion of sameness under
// which the paper's revised semantics is deterministic ("the output
// graph-table pairs are the same up to id renaming", Section 8).
//
// The checker does signature-based partition refinement first, then
// backtracking within signature classes; it is intended for the
// experiment-scale graphs of the paper (and is exercised up to a few
// thousand entities in tests).
func Isomorphic(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumRels() != b.NumRels() {
		return false
	}
	if Fingerprint(a) != Fingerprint(b) {
		return false
	}
	return findIso(a, b) != nil
}

// IsoMapping computes a node mapping witnessing isomorphism, or nil.
func IsoMapping(a, b *Graph) map[NodeID]NodeID {
	if a.NumNodes() != b.NumNodes() || a.NumRels() != b.NumRels() {
		return nil
	}
	return findIso(a, b)
}

func nodeSig(g *Graph, n *Node) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(g.LabelNames(n), ","))
	sb.WriteByte('|')
	sb.WriteString(value.MapKey(g.PropMap(n.Props)))
	// Local relationship structure: multiset of (dir, type, props) of
	// incident relationships.
	var inc []string
	for _, e := range g.Outgoing(n.ID) {
		inc = append(inc, ">"+g.SymName(e.Type)+value.MapKey(g.PropMap(g.Rel(e.Rel).Props)))
	}
	for _, e := range g.Incoming(n.ID) {
		inc = append(inc, "<"+g.SymName(e.Type)+value.MapKey(g.PropMap(g.Rel(e.Rel).Props)))
	}
	sort.Strings(inc)
	sb.WriteByte('|')
	sb.WriteString(strings.Join(inc, ";"))
	return sb.String()
}

// Fingerprint returns an order-independent structural summary of the
// graph: the sorted multiset of node signatures together with the sorted
// multiset of relationship signatures. Isomorphic graphs have equal
// fingerprints (the converse holds for all graphs in the paper's
// experiments but not in general).
func Fingerprint(g *Graph) string {
	var nodeSigs []string
	for _, id := range g.NodeIDs() {
		nodeSigs = append(nodeSigs, nodeSig(g, g.Node(id)))
	}
	sort.Strings(nodeSigs)
	var relSigs []string
	for _, id := range g.RelIDs() {
		r := g.Rel(id)
		relSigs = append(relSigs, fmt.Sprintf("%s|%s|%s->%s",
			g.TypeName(r), value.MapKey(g.PropMap(r.Props)),
			nodeSig(g, g.Node(r.Src)), nodeSig(g, g.Node(r.Tgt))))
	}
	sort.Strings(relSigs)
	return strings.Join(nodeSigs, "\x1e") + "\x1d" + strings.Join(relSigs, "\x1e")
}

func findIso(a, b *Graph) map[NodeID]NodeID {
	// Partition b's nodes by signature.
	bBySig := make(map[string][]NodeID)
	for _, id := range b.NodeIDs() {
		s := nodeSig(b, b.Node(id))
		bBySig[s] = append(bBySig[s], id)
	}
	aIDs := a.NodeIDs()
	aSigs := make([]string, len(aIDs))
	for i, id := range aIDs {
		aSigs[i] = nodeSig(a, a.Node(id))
	}
	// Order a's nodes to try most-constrained first (smallest candidate set).
	order := make([]int, len(aIDs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return len(bBySig[aSigs[order[i]]]) < len(bBySig[aSigs[order[j]]])
	})

	mapping := make(map[NodeID]NodeID, len(aIDs))
	used := make(map[NodeID]bool, len(aIDs))

	var try func(k int) bool
	try = func(k int) bool {
		if k == len(order) {
			return relsConsistent(a, b, mapping)
		}
		i := order[k]
		aid := aIDs[i]
		for _, bid := range bBySig[aSigs[i]] {
			if used[bid] {
				continue
			}
			mapping[aid] = bid
			used[bid] = true
			if partialConsistent(a, b, mapping, aid) && try(k+1) {
				return true
			}
			delete(mapping, aid)
			used[bid] = false
		}
		return false
	}
	if try(0) {
		return mapping
	}
	return nil
}

// partialConsistent checks that relationships between already-mapped nodes
// can be matched as multisets.
func partialConsistent(a, b *Graph, mapping map[NodeID]NodeID, newest NodeID) bool {
	for other := range mapping {
		if !relMultisetMatch(a, b, mapping, newest, other) {
			return false
		}
		if other != newest && !relMultisetMatch(a, b, mapping, other, newest) {
			return false
		}
	}
	return true
}

func relMultisetMatch(a, b *Graph, mapping map[NodeID]NodeID, src, tgt NodeID) bool {
	key := func(t string, props value.Map) string { return t + "|" + value.MapKey(props) }
	aCount := make(map[string]int)
	for _, e := range a.Outgoing(src) {
		if e.Other == tgt {
			aCount[key(a.SymName(e.Type), a.PropMap(a.Rel(e.Rel).Props))]++
		}
	}
	bCount := make(map[string]int)
	bs, bt := mapping[src], mapping[tgt]
	for _, e := range b.Outgoing(bs) {
		if e.Other == bt {
			bCount[key(b.SymName(e.Type), b.PropMap(b.Rel(e.Rel).Props))]++
		}
	}
	if len(aCount) != len(bCount) {
		return false
	}
	for k, c := range aCount {
		if bCount[k] != c {
			return false
		}
	}
	return true
}

func relsConsistent(a, b *Graph, mapping map[NodeID]NodeID) bool {
	// With a complete node mapping, verify the full relationship multisets.
	type edgeKey struct {
		src, tgt NodeID
		sig      string
	}
	aEdges := make(map[edgeKey]int)
	for _, rid := range a.RelIDs() {
		r := a.Rel(rid)
		aEdges[edgeKey{mapping[r.Src], mapping[r.Tgt], a.TypeName(r) + "|" + value.MapKey(a.PropMap(r.Props))}]++
	}
	bEdges := make(map[edgeKey]int)
	for _, rid := range b.RelIDs() {
		r := b.Rel(rid)
		bEdges[edgeKey{r.Src, r.Tgt, b.TypeName(r) + "|" + value.MapKey(b.PropMap(r.Props))}]++
	}
	if len(aEdges) != len(bEdges) {
		return false
	}
	for k, c := range aEdges {
		if bEdges[k] != c {
			return false
		}
	}
	return true
}

// Stats summarizes a graph: entity counts plus the degree counters the
// match planner's cost model reads. Graph.Stats() assembles it from the
// incrementally maintained counters; ComputeStats recounts from scratch
// (the reference implementation the incremental counters are tested
// against).
type Stats struct {
	Nodes    int
	Rels     int
	Labels   map[string]int    // nodes per label
	RelTypes map[string]int    // rels per type
	OutDeg   map[LabelType]int // rels of Type whose existing source carries Label
	InDeg    map[LabelType]int // rels of Type whose existing target carries Label
}

// ComputeStats gathers summary statistics by a full recount.
func ComputeStats(g *Graph) Stats {
	s := Stats{
		Nodes:    g.NumNodes(),
		Rels:     g.NumRels(),
		Labels:   make(map[string]int),
		RelTypes: make(map[string]int),
		OutDeg:   make(map[LabelType]int),
		InDeg:    make(map[LabelType]int),
	}
	for _, id := range g.NodeIDs() {
		for _, l := range g.LabelNames(g.Node(id)) {
			s.Labels[l]++
		}
	}
	for _, id := range g.RelIDs() {
		r := g.Rel(id)
		t := g.TypeName(r)
		s.RelTypes[t]++
		if src := g.Node(r.Src); src != nil {
			for _, l := range g.LabelNames(src) {
				s.OutDeg[LabelType{l, t}]++
			}
		}
		if tgt := g.Node(r.Tgt); tgt != nil {
			for _, l := range g.LabelNames(tgt) {
				s.InDeg[LabelType{l, t}]++
			}
		}
	}
	return s
}

// String renders stats compactly, e.g. "4 nodes (Product:3, User:1), 3 rels (ORDERED:3)".
func (s Stats) String() string {
	var lb []string
	for l, c := range s.Labels {
		lb = append(lb, fmt.Sprintf("%s:%d", l, c))
	}
	sort.Strings(lb)
	var tb []string
	for t, c := range s.RelTypes {
		tb = append(tb, fmt.Sprintf("%s:%d", t, c))
	}
	sort.Strings(tb)
	return fmt.Sprintf("%d nodes (%s), %d rels (%s)",
		s.Nodes, strings.Join(lb, ", "), s.Rels, strings.Join(tb, ", "))
}
