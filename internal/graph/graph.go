// Package graph implements the property graph data model of the paper
// (Section 8): G = <N, R, src, tgt, iota, lambda, tau>, where N is a set of
// nodes, R a set of relationships, src/tgt assign endpoints, lambda assigns
// label sets to nodes, tau assigns a type to each relationship, and iota
// assigns property maps to nodes and relationships.
//
// The store enforces the model's single structural invariant: there are no
// dangling relationships — every relationship's source and target node
// exist (Section 2 of the paper). The legacy Cypher 9 execution mode
// deliberately suspends this invariant mid-statement (Section 4.2); the
// store supports that through the unchecked deletion entry points, and
// re-checks the invariant over what a statement touched
// (Journal.CheckDangling) or, as the test oracle, over the whole graph
// (Validate).
//
// The package also provides:
//   - deltas (ChangeSet) implementing the revised two-phase atomic update
//     semantics of Section 7 (collect changes, detect conflicts, apply);
//   - a journal for statement-level rollback;
//   - an isomorphism checker used to verify "equal up to id renaming"
//     determinism claims (Section 8);
//   - a transactional epoch store (store.go) whose writers commit in
//     O(changes) via the copy-on-write containers of cow.go, and whose
//     committed epochs carry a structural Delta for change-feed
//     consumers (feed.go).
package graph

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/value"
)

// NodeID identifies a node. IDs are assigned monotonically and never
// reused within a Graph lifetime.
type NodeID int64

// RelID identifies a relationship.
type RelID int64

// Node is a stored node: a label set and a property list, both over
// the graph's interned names (symbols.go).
type Node struct {
	ID     NodeID
	Labels Labels
	Props  Props

	// owner tags the graph generation that may mutate this node in
	// place; other generations sharing it copy-on-write first (cow.go).
	owner uint64
}

// Rel is a stored relationship: exactly one type, one source, one target,
// and a property list.
type Rel struct {
	ID       RelID
	Type     SymID
	Src, Tgt NodeID
	Props    Props

	// owner is the copy-on-write generation tag, as on Node.
	owner uint64
}

// AdjEntry is one relationship in a node's adjacency row: its id, its
// type and its far end — the target in an outgoing row, the source in
// an incoming one. A relationship's type and endpoints never change
// while it exists, so an entry stays valid for the relationship's
// lifetime, and a hop reads both without loading the relationship.
type AdjEntry struct {
	Rel   RelID
	Other NodeID
	Type  SymID
}

// Graph is an in-memory property graph. It is not safe for concurrent
// mutation; the database layer serializes statements. Its containers are
// the copy-on-write structures of cow.go, so a graph produced by
// cloneCOW shares unmodified shards with its parent and a mutation
// copies only the bucket it touches.
type Graph struct {
	// tag is this graph generation's ownership tag: shards, rows,
	// buckets and entities carrying a different tag are shared with
	// another epoch and must be copied before mutation.
	tag uint64

	nodes idMap[*Node]
	rels  idMap[*Rel]

	outgoing idMap[*adjRow]
	incoming idMap[*adjRow]
	// byLabel is the label index: the node set of each label, by label
	// id (empty for ids that are not labels or have no nodes).
	byLabel []labelSet
	// syms interns labels, relationship types and property keys.
	syms *symbols

	nextNode NodeID
	nextRel  RelID

	// stats holds the incrementally maintained planner statistics
	// (stats.go); every mutation path below keeps it in sync with a
	// from-scratch recount.
	stats statsCounters
	// version counts structural mutations (nodes, relationships,
	// labels — everything the planner statistics reflect; property
	// writes excluded). The match planner caches plans against it.
	version int64

	// indexes holds the property indexes (index.go), maintained
	// incrementally by every mutation path; indexEpoch counts index
	// creations/drops so cached match plans invalidate on schema change.
	indexes    map[idxKey]*propIndex
	indexEpoch int64

	journal *Journal // non-nil while a statement's undo journal is active
}

// New returns an empty graph.
func New() *Graph {
	tag := newCowTag()
	return &Graph{tag: tag, syms: newSymbols(tag)}
}

// Version reports the structural mutation counter: it changes whenever
// nodes, relationships or labels do (but not on property writes), so
// cached match plans can be invalidated cheaply.
func (g *Graph) Version() int64 { return g.version }

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return g.nodes.size() }

// NumRels reports the number of relationships.
func (g *Graph) NumRels() int { return g.rels.size() }

// Node returns the node with the given id, or nil.
func (g *Graph) Node(id NodeID) *Node {
	n, _ := g.nodes.get(int64(id))
	return n
}

// Rel returns the relationship with the given id, or nil.
func (g *Graph) Rel(id RelID) *Rel {
	r, _ := g.rels.get(int64(id))
	return r
}

// HasNode reports whether a node with the given id exists.
func (g *Graph) HasNode(id NodeID) bool { return g.nodes.has(int64(id)) }

// HasRel reports whether a relationship with the given id exists.
func (g *Graph) HasRel(id RelID) bool { return g.rels.has(int64(id)) }

// HasLabelID reports whether node id carries the interned label. It
// reads the label index's presence bit and does not load the node.
func (g *Graph) HasLabelID(id NodeID, label SymID) bool {
	return int(label) < len(g.byLabel) && g.byLabel[label].has(int64(id))
}

// NodeIDs returns all node ids in ascending order. The deterministic order
// is what makes legacy-mode scans reproducible for a given graph state.
func (g *Graph) NodeIDs() []NodeID { return ascendingIDs[NodeID](&g.nodes) }

// RelIDs returns all relationship ids in ascending order.
func (g *Graph) RelIDs() []RelID { return ascendingIDs[RelID](&g.rels) }

// NodeIDsByLabel returns the ids of nodes carrying the label, ascending.
func (g *Graph) NodeIDsByLabel(label string) []NodeID {
	id, ok := g.Sym(label)
	if !ok {
		return nil
	}
	return g.NodeIDsByLabelID(id)
}

// NodeIDsByLabelID is NodeIDsByLabel for an interned label.
func (g *Graph) NodeIDsByLabelID(label SymID) []NodeID {
	if int(label) >= len(g.byLabel) || g.byLabel[label].size() == 0 {
		return nil
	}
	return ascendingIDs[NodeID](&g.byLabel[label])
}

// Outgoing returns the adjacency entries of the relationships whose
// source is the node, in ascending relationship id order; an entry's
// Other is the target. The returned slice is the store's own adjacency
// row — a read-only view that is invalidated by the next mutation of
// the graph; callers must not modify it or hold it across writes.
// (Rows are maintained sorted on insert: ids are monotonic, so
// creation appends in order, and deletion/restore preserve order.)
func (g *Graph) Outgoing(id NodeID) []AdjEntry {
	return adjEntries(&g.outgoing, id)
}

// Incoming returns the adjacency entries of the relationships whose
// target is the node, in ascending relationship id order; an entry's
// Other is the source. The same read-only-view contract as Outgoing
// holds.
func (g *Graph) Incoming(id NodeID) []AdjEntry {
	return adjEntries(&g.incoming, id)
}

// entryIndex finds rid's entry in an ascending row: its index, or where
// it would be inserted and false.
func entryIndex(row []AdjEntry, rid RelID) (int, bool) {
	return slices.BinarySearchFunc(row, rid, func(e AdjEntry, rid RelID) int { return cmp.Compare(e.Rel, rid) })
}

// insertEntrySorted inserts e into an ascending row, keeping it sorted.
// Restores (rollback, codec decode) may reinstate a relationship with
// an id smaller than later-created survivors, so a plain append would
// break the sorted-adjacency invariant.
func insertEntrySorted(row []AdjEntry, e AdjEntry) []AdjEntry {
	i, _ := entryIndex(row, e.Rel)
	return slices.Insert(row, i, e)
}

// Degree reports the total number of relationships attached to the node
// (a self-loop counts twice: once outgoing, once incoming).
func (g *Graph) Degree(id NodeID) int {
	return len(g.Outgoing(id)) + len(g.Incoming(id))
}

// CreateNode adds a node with the given labels and properties and returns
// it. Properties mapped to null are not stored (iota(n,k)=null means
// "absent" in the formal model).
func (g *Graph) CreateNode(labels []string, props value.Map) *Node {
	g.version++
	g.nextNode++
	n := &Node{ID: g.nextNode, Labels: g.labelsOf(labels), Props: g.propsOf(props), owner: g.tag}
	g.nodes.put(g.tag, int64(n.ID), n)
	for _, l := range n.Labels {
		g.indexLabel(l, n.ID)
	}
	g.indexNode(n, true)
	if g.journal != nil {
		g.journal.record(undoCreateNode{id: n.ID})
	}
	return n
}

// CreateRel adds a relationship from src to tgt with the given type and
// properties. It returns an error if either endpoint does not exist
// (no dangling relationships) or if the type is empty (every relationship
// has exactly one type; Section 2).
func (g *Graph) CreateRel(src, tgt NodeID, relType string, props value.Map) (*Rel, error) {
	if relType == "" {
		return nil, fmt.Errorf("graph: relationship must have a type")
	}
	if !g.HasNode(src) {
		return nil, fmt.Errorf("graph: source node %d does not exist", src)
	}
	if !g.HasNode(tgt) {
		return nil, fmt.Errorf("graph: target node %d does not exist", tgt)
	}
	g.nextRel++
	r := &Rel{ID: g.nextRel, Type: g.intern(relType), Src: src, Tgt: tgt, Props: g.propsOf(props), owner: g.tag}
	g.rels.put(g.tag, int64(r.ID), r)
	// A freshly created id exceeds every stored one, so appending keeps
	// the adjacency rows sorted.
	out := g.adjWritable(&g.outgoing, src)
	out.entries = append(out.entries, AdjEntry{Rel: r.ID, Other: tgt, Type: r.Type})
	in := g.adjWritable(&g.incoming, tgt)
	in.entries = append(in.entries, AdjEntry{Rel: r.ID, Other: src, Type: r.Type})
	g.statsRel(r, +1)
	if g.journal != nil {
		g.journal.record(undoCreateRel{id: r.ID})
	}
	return r, nil
}

// DeleteRel removes a relationship. Removing a missing relationship is a
// no-op (it may have been deleted earlier in the same statement).
func (g *Graph) DeleteRel(id RelID) {
	r, ok := g.rels.get(int64(id))
	if !ok {
		return
	}
	if g.journal != nil {
		g.journal.record(undoDeleteRel{rel: copyRel(r)})
	}
	g.statsRel(r, -1)
	g.rels.del(g.tag, int64(id))
	g.adjRemove(&g.outgoing, r.Src, id)
	g.adjRemove(&g.incoming, r.Tgt, id)
}

// DeleteNode removes a node, returning an error if relationships are still
// attached (the DELETE failure mode described in Section 3 of the paper).
func (g *Graph) DeleteNode(id NodeID) error {
	n, ok := g.nodes.get(int64(id))
	if !ok {
		return nil
	}
	if g.Degree(id) > 0 {
		return &DanglingError{Node: id, Attached: g.Degree(id)}
	}
	if g.journal != nil {
		g.journal.record(undoDeleteNode{node: copyNode(n)})
	}
	g.removeNodeInternal(n)
	return nil
}

// DeleteNodeUnchecked removes a node even if relationships are attached,
// leaving them dangling. This reproduces the non-atomic mid-statement
// state of legacy Cypher 9 DELETE (Section 4.2); Validate will fail until
// the dangling relationships are also removed.
func (g *Graph) DeleteNodeUnchecked(id NodeID) {
	n, ok := g.nodes.get(int64(id))
	if !ok {
		return
	}
	if g.journal != nil {
		g.journal.record(undoDeleteNode{node: copyNode(n)})
	}
	g.removeNodeInternal(n)
}

func (g *Graph) removeNodeInternal(n *Node) {
	g.version++
	// The node's labels stop contributing to the degree counters; any
	// relationships it leaves dangling (legacy unchecked deletion) keep
	// only their surviving endpoint's contribution.
	g.statsNodeRels(n, -1)
	g.indexNode(n, false)
	g.nodes.del(g.tag, int64(n.ID))
	for _, l := range n.Labels {
		g.unindexLabel(l, n.ID)
	}
	// Adjacency rows for the node are retained only if non-empty
	// (dangling rels keep referring to the removed node id).
	if len(adjEntries(&g.outgoing, n.ID)) == 0 {
		g.outgoing.del(g.tag, int64(n.ID))
	}
	if len(adjEntries(&g.incoming, n.ID)) == 0 {
		g.incoming.del(g.tag, int64(n.ID))
	}
}

// DetachDeleteNode removes a node along with all attached relationships.
func (g *Graph) DetachDeleteNode(id NodeID) {
	if !g.HasNode(id) {
		return
	}
	// Copy the adjacency rows before deleting: DeleteRel mutates them.
	for _, e := range slices.Clone(g.Outgoing(id)) {
		g.DeleteRel(e.Rel)
	}
	for _, e := range slices.Clone(g.Incoming(id)) {
		g.DeleteRel(e.Rel)
	}
	g.DeleteNodeUnchecked(id)
}

// SetNodeProp sets (or, when v is null, removes) a node property.
func (g *Graph) SetNodeProp(id NodeID, key string, v value.Value) error {
	n := g.mutableNode(id)
	if n == nil {
		return fmt.Errorf("graph: node %d does not exist", id)
	}
	k := g.intern(key)
	if g.journal != nil {
		old, _ := n.Props.Get(k)
		g.journal.record(undoSetNodeProp{id: id, key: k, old: old})
	}
	g.setNodeProp(n, k, v)
	return nil
}

// setNodeProp writes key on n, a node this generation owns, keeping
// the property indexes in step; a null v removes the key.
func (g *Graph) setNodeProp(n *Node, key SymID, v value.Value) {
	old, had := n.Props.Get(key)
	has := !value.IsNull(v)
	g.indexPropWrite(n, key, old, had, v, has)
	n.Props = n.Props.write(key, v)
}

// SetRelProp sets (or, when v is null, removes) a relationship property.
func (g *Graph) SetRelProp(id RelID, key string, v value.Value) error {
	r := g.mutableRel(id)
	if r == nil {
		return fmt.Errorf("graph: relationship %d does not exist", id)
	}
	k := g.intern(key)
	if g.journal != nil {
		old, _ := r.Props.Get(k)
		g.journal.record(undoSetRelProp{id: id, key: k, old: old})
	}
	r.Props = r.Props.write(k, v)
	return nil
}

// AddLabel adds a label to a node.
func (g *Graph) AddLabel(id NodeID, label string) error {
	n := g.mutableNode(id)
	if n == nil {
		return fmt.Errorf("graph: node %d does not exist", id)
	}
	l := g.intern(label)
	if n.Labels.Has(l) {
		return nil
	}
	if g.journal != nil {
		g.journal.record(undoAddLabel{id: id, label: l})
	}
	g.addLabel(n, l)
	return nil
}

// addLabel gives n (owned, not carrying l) the label and updates the
// label index, property indexes and statistics.
func (g *Graph) addLabel(n *Node, l SymID) {
	i, _ := slices.BinarySearch(n.Labels, l)
	n.Labels = slices.Insert(n.Labels, i, l)
	g.indexLabel(l, n.ID)
	g.indexNodeLabel(n, l, true)
	g.statsLabel(n.ID, l, +1)
}

// RemoveLabel removes a label from a node.
func (g *Graph) RemoveLabel(id NodeID, label string) error {
	n := g.Node(id)
	if n == nil {
		return fmt.Errorf("graph: node %d does not exist", id)
	}
	l, ok := g.Sym(label)
	if !ok || !n.Labels.Has(l) {
		return nil
	}
	n = g.mutableNode(id)
	if g.journal != nil {
		g.journal.record(undoRemoveLabel{id: id, label: l})
	}
	g.removeLabel(n, l)
	return nil
}

// removeLabel is addLabel's inverse.
func (g *Graph) removeLabel(n *Node, l SymID) {
	g.statsLabel(n.ID, l, -1)
	g.indexNodeLabel(n, l, false)
	if i, ok := slices.BinarySearch(n.Labels, l); ok {
		n.Labels = slices.Delete(n.Labels, i, i+1)
	}
	g.unindexLabel(l, n.ID)
}

func (g *Graph) indexLabel(label SymID, id NodeID) {
	for int(label) >= len(g.byLabel) {
		g.byLabel = append(g.byLabel, labelSet{})
	}
	g.byLabel[label].put(g.tag, int64(id), struct{}{})
}

func (g *Graph) unindexLabel(label SymID, id NodeID) {
	if int(label) < len(g.byLabel) {
		g.byLabel[label].del(g.tag, int64(id))
	}
}

// DanglingError reports a deletion that would leave (or has left)
// relationships without an endpoint.
type DanglingError struct {
	Node     NodeID
	Attached int
}

// Error implements error.
func (e *DanglingError) Error() string {
	return fmt.Sprintf("cannot delete node %d: %d relationship(s) still attached", e.Node, e.Attached)
}

// Validate checks the structural invariant that every relationship's
// endpoints exist, returning the violation of the lowest relationship
// id, and then that the adjacency rows match the relationships (see
// validateRows). It walks the whole graph; statement boundaries use the
// journal's CheckDangling instead, and Validate is its test oracle.
func (g *Graph) Validate() error {
	for _, id := range g.RelIDs() {
		if err := g.Rel(id).danglingError(g); err != nil {
			return err
		}
	}
	if err := g.validateRows(&g.outgoing, "out"); err != nil {
		return err
	}
	return g.validateRows(&g.incoming, "in")
}

// validateRows checks one side's adjacency rows against the
// relationships: every entry names a live relationship whose source
// (out rows) or target (in rows) is the row's node, with the
// relationship's type and far end, entries ascend strictly by id, and
// the rows hold one entry per relationship. A relationship has one
// source and one target, so it then has exactly one entry per side.
// A row of an absent node is one a legacy DeleteNodeUnchecked left;
// its entries are dangling relationships, which Validate reports first.
func (g *Graph) validateRows(rows *idMap[*adjRow], side string) error {
	var err error
	n := 0
	rows.each(func(id int64, row *adjRow) {
		for i, e := range row.entries {
			if err != nil {
				return
			}
			r := g.Rel(e.Rel)
			near, far := NodeID(0), NodeID(0)
			if r != nil {
				near, far = r.Src, r.Tgt
				if side == "in" {
					near, far = far, near
				}
			}
			switch {
			case r == nil:
				err = fmt.Errorf("graph: node %d's %s row names missing relationship %d", id, side, e.Rel)
			case i > 0 && row.entries[i-1].Rel >= e.Rel:
				err = fmt.Errorf("graph: node %d's %s row is not strictly ascending at relationship %d", id, side, e.Rel)
			case near != NodeID(id) || far != e.Other || r.Type != e.Type:
				err = fmt.Errorf("graph: node %d's %s row entry %+v does not match relationship %d (%d)-[%d]->(%d)", id, side, e, r.ID, r.Src, r.Type, r.Tgt)
			}
		}
		n += len(row.entries)
	})
	if err == nil && n != g.NumRels() {
		err = fmt.Errorf("graph: %s rows hold %d entries for %d relationships", side, n, g.NumRels())
	}
	return err
}

// danglingError reports r's missing endpoint in g, source first, or nil.
func (r *Rel) danglingError(g *Graph) error {
	if !g.HasNode(r.Src) {
		return fmt.Errorf("graph: relationship %d has dangling source %d", r.ID, r.Src)
	}
	if !g.HasNode(r.Tgt) {
		return fmt.Errorf("graph: relationship %d has dangling target %d", r.ID, r.Tgt)
	}
	return nil
}

// Clone returns a deep copy of the graph sharing no mutable state. Stored
// property values are immutable by convention (the evaluator never mutates
// a stored List/Map in place), so values themselves are shared. Contrast
// cloneCOW (cow.go), which shares structure and is what write
// transactions use; Clone remains the independent-database copy
// (DB.Snapshot, dialect switching) and the baseline the copy-on-write
// paths are property-tested against.
func (g *Graph) Clone() *Graph {
	ng := New()
	ng.nextNode = g.nextNode
	ng.nextRel = g.nextRel
	ng.version = g.version
	ng.indexEpoch = g.indexEpoch
	g.nodes.each(func(id int64, n *Node) {
		c := copyNode(n)
		c.owner = ng.tag
		ng.nodes.put(ng.tag, id, c)
	})
	g.rels.each(func(id int64, r *Rel) {
		c := copyRel(r)
		c.owner = ng.tag
		ng.rels.put(ng.tag, id, c)
	})
	g.outgoing.each(func(id int64, row *adjRow) {
		ng.outgoing.put(ng.tag, id, &adjRow{entries: slices.Clone(row.entries), owner: ng.tag})
	})
	g.incoming.each(func(id int64, row *adjRow) {
		ng.incoming.put(ng.tag, id, &adjRow{entries: slices.Clone(row.entries), owner: ng.tag})
	})
	ng.syms = g.syms.copyFor(ng.tag)
	ng.byLabel = make([]labelSet, len(g.byLabel))
	for l := range g.byLabel {
		g.byLabel[l].each(func(id int64, _ struct{}) {
			ng.byLabel[l].put(ng.tag, id, struct{}{})
		})
	}
	if len(g.indexes) > 0 {
		ng.indexes = make(map[idxKey]*propIndex, len(g.indexes))
		for k, idx := range g.indexes {
			ng.indexes[k] = idx.cloneDeep(ng.tag)
		}
	}
	ng.stats = g.stats.clone()
	return ng
}

func copyNode(n *Node) *Node {
	return &Node{ID: n.ID, Labels: slices.Clone(n.Labels), Props: slices.Clone(n.Props)}
}

func copyRel(r *Rel) *Rel {
	return &Rel{ID: r.ID, Type: r.Type, Src: r.Src, Tgt: r.Tgt, Props: slices.Clone(r.Props)}
}

// restoreNode reinstates a node with its original id (journal rollback).
// The node object becomes owned by this graph generation: journal
// captures are private copies, so no other epoch can hold it.
func (g *Graph) restoreNode(n *Node) {
	g.version++
	n.owner = g.tag
	g.nodes.put(g.tag, int64(n.ID), n)
	for _, l := range n.Labels {
		g.indexLabel(l, n.ID)
	}
	g.indexNode(n, true)
	// Attached relationships that survived (or were restored first)
	// regain this endpoint's label contribution.
	g.statsNodeRels(n, +1)
}

// restoreRel reinstates a relationship with its original id (journal
// rollback, codec decode). The insert keeps adjacency lists sorted:
// restored ids may be smaller than those of surviving relationships.
func (g *Graph) restoreRel(r *Rel) {
	r.owner = g.tag
	g.rels.put(g.tag, int64(r.ID), r)
	out := g.adjWritable(&g.outgoing, r.Src)
	out.entries = insertEntrySorted(out.entries, AdjEntry{Rel: r.ID, Other: r.Tgt, Type: r.Type})
	in := g.adjWritable(&g.incoming, r.Tgt)
	in.entries = insertEntrySorted(in.entries, AdjEntry{Rel: r.ID, Other: r.Src, Type: r.Type})
	g.statsRel(r, +1)
}
