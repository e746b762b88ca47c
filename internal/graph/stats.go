package graph

// Graph statistics maintained incrementally under mutation.
//
// The match planner (internal/match) picks scan anchors and orders
// pattern parts by cardinality estimates; because the source paper is
// about updates, those estimates must stay correct while CREATE, DELETE,
// SET, REMOVE and statement rollback mutate the graph. Rather than
// recounting, every mutation entry point of the store adjusts a set of
// counters, so all reads here are O(1):
//
//   - nodes per label (derived from the label index, which is already
//     maintained incrementally);
//   - relationships per type;
//   - relationship endpoints per (endpoint label, relationship type) and
//     per endpoint label — the "degree sums" from which average out/in
//     degrees are computed.
//
// The degree counters follow the convention of the from-scratch recount
// in ComputeStats: a relationship contributes to out-degree counters
// once per label of its source node and to in-degree counters once per
// label of its target node, counting only endpoints that currently
// exist. Legacy Cypher 9 DELETE may leave relationships dangling
// mid-statement (Section 4.2 of the paper); a dangling endpoint simply
// stops contributing until the node is restored.
//
// The invariant "counters == ComputeStats(g)" is exercised by a
// property-style test over random mutation/rollback sequences
// (stats_test.go).

// LabelType names an (endpoint label, relationship type) pair of the
// Stats snapshot.
type LabelType struct {
	Label string
	Type  string
}

// symPair keys degree counters by endpoint label id and relationship
// type id.
type symPair struct{ label, typ SymID }

// statsCounters holds the incrementally maintained counters, keyed by
// interned ids. Maps are allocated lazily and entries are deleted when
// they reach zero, so two graphs with equal content have equal
// (canonical) counters.
type statsCounters struct {
	relType  map[SymID]int   // relationships per type
	out      map[symPair]int // rels of typ whose source carries label
	in       map[symPair]int // rels of typ whose target carries label
	outLabel map[SymID]int   // rels (any type) whose source carries label
	inLabel  map[SymID]int   // rels (any type) whose target carries label
}

func bump[K comparable](m map[K]int, k K, delta int) map[K]int {
	if m == nil {
		m = make(map[K]int)
	}
	n := m[k] + delta
	if n == 0 {
		delete(m, k)
	} else {
		m[k] = n
	}
	return m
}

// statsEnd adjusts the counters of one endpoint label across one
// relationship, for its source (out) or target side.
func (s *statsCounters) statsEnd(label, typ SymID, out bool, delta int) {
	if out {
		s.out = bump(s.out, symPair{label, typ}, delta)
		s.outLabel = bump(s.outLabel, label, delta)
	} else {
		s.in = bump(s.in, symPair{label, typ}, delta)
		s.inLabel = bump(s.inLabel, label, delta)
	}
}

// statsRel adjusts the counters for relationship r by delta (+1 on
// create/restore, -1 on delete). Endpoint label contributions are
// counted only for endpoints that currently exist; restoreNode and
// removeNodeInternal account for the missing side.
func (g *Graph) statsRel(r *Rel, delta int) {
	g.version++
	g.stats.relType = bump(g.stats.relType, r.Type, delta)
	if src := g.Node(r.Src); src != nil {
		for _, l := range src.Labels {
			g.stats.statsEnd(l, r.Type, true, delta)
		}
	}
	if tgt := g.Node(r.Tgt); tgt != nil {
		for _, l := range tgt.Labels {
			g.stats.statsEnd(l, r.Type, false, delta)
		}
	}
}

// statsNodeRels adjusts the degree contribution of node n's labels
// across its attached, still-existing relationships. Called when a node
// appears (restore) or disappears (removal, including the unchecked
// legacy deletion that leaves relationships dangling).
func (g *Graph) statsNodeRels(n *Node, delta int) {
	for _, l := range n.Labels {
		g.statsLabelRels(n.ID, l, delta)
	}
}

// statsLabel adjusts the degree contribution of one label gained
// (delta=+1) or lost (delta=-1) by node id, across its attached,
// still-existing relationships.
func (g *Graph) statsLabel(id NodeID, label SymID, delta int) {
	g.version++
	g.statsLabelRels(id, label, delta)
}

func (g *Graph) statsLabelRels(id NodeID, label SymID, delta int) {
	for _, e := range g.Outgoing(id) {
		g.stats.statsEnd(label, e.Type, true, delta)
	}
	for _, e := range g.Incoming(id) {
		g.stats.statsEnd(label, e.Type, false, delta)
	}
}

func (s statsCounters) clone() statsCounters {
	return statsCounters{
		relType:  cloneCounts(s.relType),
		out:      cloneCounts(s.out),
		in:       cloneCounts(s.in),
		outLabel: cloneCounts(s.outLabel),
		inLabel:  cloneCounts(s.inLabel),
	}
}

func cloneCounts[K comparable](m map[K]int) map[K]int {
	if len(m) == 0 {
		return nil
	}
	out := make(map[K]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// ---------------------------------------------------------------------
// O(1) read API (the planner's cost-model inputs)
// ---------------------------------------------------------------------

// NodeCountByLabel reports the number of nodes carrying the label, O(1).
func (g *Graph) NodeCountByLabel(label string) int {
	id, ok := g.Sym(label)
	if !ok || int(id) >= len(g.byLabel) {
		return 0
	}
	return g.byLabel[id].size()
}

// RelCountByType reports the number of relationships of the type, O(1).
func (g *Graph) RelCountByType(relType string) int {
	id, ok := g.Sym(relType)
	if !ok {
		return 0
	}
	return g.stats.relType[id]
}

// OutRelCount reports how many relationships of relType have a source
// node carrying label; relType "" means any type. O(1).
func (g *Graph) OutRelCount(label, relType string) int {
	return g.endCount(label, relType, true)
}

// InRelCount reports how many relationships of relType have a target
// node carrying label; relType "" means any type. O(1).
func (g *Graph) InRelCount(label, relType string) int {
	return g.endCount(label, relType, false)
}

func (g *Graph) endCount(label, relType string, out bool) int {
	l, ok := g.Sym(label)
	if !ok {
		return 0
	}
	if relType == "" {
		if out {
			return g.stats.outLabel[l]
		}
		return g.stats.inLabel[l]
	}
	t, ok := g.Sym(relType)
	if !ok {
		return 0
	}
	if out {
		return g.stats.out[symPair{l, t}]
	}
	return g.stats.in[symPair{l, t}]
}

// AvgOutDegree estimates the average number of relType relationships
// leaving a node with the given label ("" label means any node, ""
// relType means any type). O(1).
func (g *Graph) AvgOutDegree(label, relType string) float64 {
	return avgDegree(g.degreeCount(label, relType, true), g.nodeBase(label))
}

// AvgInDegree estimates the average number of relType relationships
// entering a node with the given label. O(1).
func (g *Graph) AvgInDegree(label, relType string) float64 {
	return avgDegree(g.degreeCount(label, relType, false), g.nodeBase(label))
}

func (g *Graph) degreeCount(label, relType string, out bool) int {
	if label == "" {
		if relType == "" {
			return g.rels.size()
		}
		return g.RelCountByType(relType)
	}
	return g.endCount(label, relType, out)
}

func (g *Graph) nodeBase(label string) int {
	if label == "" {
		return g.nodes.size()
	}
	return g.NodeCountByLabel(label)
}

func avgDegree(rels, nodes int) float64 {
	if nodes == 0 {
		return 0
	}
	return float64(rels) / float64(nodes)
}

// Stats returns a snapshot of the incrementally maintained statistics.
// It is equal to ComputeStats(g) at all times (the invariant the
// property tests check), but is assembled from O(1) counters rather
// than a full recount.
func (g *Graph) Stats() Stats {
	s := Stats{
		Nodes:    g.nodes.size(),
		Rels:     g.rels.size(),
		Labels:   make(map[string]int),
		RelTypes: make(map[string]int, len(g.stats.relType)),
		OutDeg:   make(map[LabelType]int, len(g.stats.out)),
		InDeg:    make(map[LabelType]int, len(g.stats.in)),
	}
	for l := range g.byLabel {
		if n := g.byLabel[l].size(); n > 0 {
			s.Labels[g.SymName(SymID(l))] = n
		}
	}
	for t, c := range g.stats.relType {
		s.RelTypes[g.SymName(t)] = c
	}
	for k, c := range g.stats.out {
		s.OutDeg[LabelType{g.SymName(k.label), g.SymName(k.typ)}] = c
	}
	for k, c := range g.stats.in {
		s.InDeg[LabelType{g.SymName(k.label), g.SymName(k.typ)}] = c
	}
	return s
}

// NodeCountByLabelID is NodeCountByLabel for an interned label.
func (g *Graph) NodeCountByLabelID(label SymID) int {
	if int(label) >= len(g.byLabel) {
		return 0
	}
	return g.byLabel[label].size()
}
