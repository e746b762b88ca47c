package graph

// Property indexes maintained incrementally under mutation.
//
// A property index is a hash index on a (label, property) pair: it maps
// canonical value keys (value.Key, under which Cypher-equivalent values
// — e.g. 1 and 1.0 — share a key) to the set of nodes that carry the
// label and store that value under the property. The match planner
// (internal/match) turns pushed `n.prop = <expr>` conjuncts and inline
// property maps into index seeks, so an equality-anchored MATCH or a
// bulk MERGE touches one bucket instead of scanning the label.
//
// Because the source paper is about updates, the index — like the
// planner statistics in stats.go — must stay correct while every
// mutation path runs: CreateNode/SetNodeProp/AddLabel/RemoveLabel,
// checked/unchecked/detach deletion, journal rollback (statement- and
// transaction-level), ChangeSet application, codec decode and Clone.
// Each of those paths calls one of the index* hooks below; the
// invariant "index contents == full rescan" is exercised by a
// property-style test over random mutation/rollback sequences
// (index_test.go, the sibling of stats_test.go).
//
// The index participates in the copy-on-write commit path (cow.go):
// cloneShared hands a write transaction an index whose bucket directory
// and bucket sets are all shared with the published epoch, and the
// maintenance hooks copy exactly the directory shard and bucket a write
// touches. A 1-row write against a 100k-entry index therefore copies
// one bucket, not the index.
//
// Seek soundness: an index seek enumerates the bucket of the sought
// value's key and still runs the full per-candidate checks
// (labels, inline property maps, pushed predicates). Key equality is
// value equivalence, which is implied by Cypher ternary equality being
// True, so the bucket is a superset of the true matches and the
// post-checks never lose a row; candidates come back in ascending node
// id, a subset of the label scan's order, so result order is unchanged.

import (
	"slices"
	"sort"

	"repro/internal/value"
)

// IndexKey identifies a property index by node label and property name.
type IndexKey struct {
	Label string
	Prop  string
}

// idxKey is an IndexKey over interned ids, the key of Graph.indexes.
type idxKey struct{ label, prop SymID }

// indexKey interns k's names.
func (g *Graph) indexKey(k IndexKey) idxKey {
	return idxKey{g.intern(k.Label), g.intern(k.Prop)}
}

// lookupIndex returns the index on (label, prop), if any.
func (g *Graph) lookupIndex(label, prop string) (*propIndex, bool) {
	l, ok := g.Sym(label)
	if !ok {
		return nil, false
	}
	p, ok := g.Sym(prop)
	if !ok {
		return nil, false
	}
	idx, ok := g.indexes[idxKey{l, p}]
	return idx, ok
}

// propIndex is the hash index for one (label, property) pair: canonical
// value keys to node-id sets, stored in the sharded copy-on-write
// strMap of cow.go. entries counts (node, value) pairs so the planner
// can estimate the average bucket size in O(1).
type propIndex struct {
	buckets strMap
	entries int
}

func newPropIndex() *propIndex {
	return &propIndex{}
}

// add inserts node id under value v on behalf of the graph generation
// tag, copying the touched directory shard and bucket if still shared.
func (x *propIndex) add(tag uint64, id NodeID, v value.Value) {
	k := value.Key(v)
	if _, dup := slices.BinarySearch(x.buckets.bucket(k), id); dup {
		return
	}
	_, set := x.buckets.writableBucket(tag, k)
	i, _ := slices.BinarySearch(set.ids, id)
	set.ids = slices.Insert(set.ids, i, id)
	x.entries++
}

// remove deletes node id's entry under value v, copying only when the
// entry is actually present.
func (x *propIndex) remove(tag uint64, id NodeID, v value.Value) {
	k := value.Key(v)
	if _, had := slices.BinarySearch(x.buckets.bucket(k), id); !had {
		return
	}
	sh, set := x.buckets.writableBucket(tag, k)
	i, _ := slices.BinarySearch(set.ids, id)
	set.ids = slices.Delete(set.ids, i, i+1)
	x.entries--
	if len(set.ids) == 0 {
		delete(sh.m, k)
		x.buckets.keys--
	}
}

// cloneShared returns an index sharing every directory shard and bucket
// with x, for the copy-on-write commit path. The clone's writes copy
// shards/buckets via the owner-tag checks above.
func (x *propIndex) cloneShared() *propIndex {
	return &propIndex{buckets: x.buckets, entries: x.entries}
}

// cloneDeep rebuilds a fully private copy owned by tag (Graph.Clone).
func (x *propIndex) cloneDeep(tag uint64) *propIndex {
	c := &propIndex{entries: x.entries}
	c.buckets.keys = x.buckets.keys
	for si, sh := range x.buckets.shards {
		if sh == nil {
			continue
		}
		ns := &strShard{m: make(map[string]*idSetCOW, len(sh.m)), owner: tag}
		for k, set := range sh.m {
			ns.m[k] = &idSetCOW{ids: slices.Clone(set.ids), owner: tag}
		}
		c.buckets.shards[si] = ns
	}
	return c
}

// each calls f for every (canonical key, bucket) pair, in no particular
// order. The bucket must not be mutated.
func (x *propIndex) each(f func(key string, bucket []NodeID)) {
	for _, sh := range x.buckets.shards {
		if sh == nil {
			continue
		}
		for k, set := range sh.m {
			f(k, set.ids)
		}
	}
}

// CreateIndex creates a property index on (label, prop), populating it
// from the current graph contents. Creating an index that already
// exists is a no-op; the return value reports whether a new index was
// built. The creation is journaled: rolling back the enclosing
// statement or transaction drops the index again.
func (g *Graph) CreateIndex(label, prop string) bool {
	key := IndexKey{Label: label, Prop: prop}
	if _, exists := g.lookupIndex(label, prop); exists {
		return false
	}
	g.buildIndex(key)
	if g.journal != nil {
		g.journal.record(undoCreateIndex{key: key})
	}
	return true
}

// buildIndex constructs and installs the index for key from a scan of
// the label, without journaling (shared by CreateIndex and the
// DROP INDEX undo path).
func (g *Graph) buildIndex(key IndexKey) {
	idx := newPropIndex()
	k := g.indexKey(key)
	for _, id := range g.NodeIDsByLabelID(k.label) {
		if v, ok := g.Node(id).Props.Get(k.prop); ok {
			idx.add(g.tag, id, v)
		}
	}
	if g.indexes == nil {
		g.indexes = make(map[idxKey]*propIndex)
	}
	g.indexes[k] = idx
	g.version++
	g.indexEpoch++
}

// DropIndex removes the property index on (label, prop), reporting
// whether one existed. The drop is journaled: rolling back the
// enclosing statement or transaction rebuilds the index.
func (g *Graph) DropIndex(label, prop string) bool {
	key := IndexKey{Label: label, Prop: prop}
	if _, exists := g.lookupIndex(label, prop); !exists {
		return false
	}
	g.removeIndex(key)
	if g.journal != nil {
		g.journal.record(undoDropIndex{key: key})
	}
	return true
}

// removeIndex uninstalls the index for key without journaling (shared
// by DropIndex and the CREATE INDEX undo path).
func (g *Graph) removeIndex(key IndexKey) {
	delete(g.indexes, g.indexKey(key))
	g.version++
	g.indexEpoch++
}

// HasIndex reports whether a property index exists on (label, prop).
func (g *Graph) HasIndex(label, prop string) bool {
	_, ok := g.lookupIndex(label, prop)
	return ok
}

// Indexes lists the graph's property indexes sorted by label, then
// property.
func (g *Graph) Indexes() []IndexKey {
	out := make([]IndexKey, 0, len(g.indexes))
	for k := range g.indexes {
		out = append(out, IndexKey{Label: g.SymName(k.label), Prop: g.SymName(k.prop)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Prop < out[j].Prop
	})
	return out
}

// IndexEpoch reports a counter bumped by every CreateIndex/DropIndex
// (including their rollbacks). The match planner stamps its plans with
// it so index creation and drop invalidate cached plans immediately.
func (g *Graph) IndexEpoch() int64 { return g.indexEpoch }

// NodeIDsByProp returns, in ascending order, the ids of nodes carrying
// the label whose stored property equals v under value equivalence —
// one bucket of the (label, prop) index. It returns nil when no such
// index exists; callers gate on HasIndex. The slice is the index's own
// bucket: a read-only view under the same contract as Outgoing.
func (g *Graph) NodeIDsByProp(label, prop string, v value.Value) []NodeID {
	idx, ok := g.lookupIndex(label, prop)
	if !ok {
		return nil
	}
	return idx.buckets.bucket(value.Key(v))
}

// IndexAvgBucket estimates how many nodes an equality seek on the
// (label, prop) index returns: total entries over distinct keys, O(1).
// It returns 0 for an empty index and -1 when no index exists.
func (g *Graph) IndexAvgBucket(label, prop string) float64 {
	idx, ok := g.lookupIndex(label, prop)
	if !ok {
		return -1
	}
	if idx.buckets.keys == 0 {
		return 0
	}
	return float64(idx.entries) / float64(idx.buckets.keys)
}

// ---------------------------------------------------------------------
// Maintenance hooks (called from every mutation path)
// ---------------------------------------------------------------------

// indexNode adds (add=true) or removes a node's entries in every index
// covering one of its labels. Called when the node appears
// (CreateNode, restoreNode) or disappears (removeNodeInternal, which
// also serves the unchecked legacy deletion).
func (g *Graph) indexNode(n *Node, add bool) {
	if len(g.indexes) == 0 {
		return
	}
	for _, l := range n.Labels {
		g.indexNodeLabel(n, l, add)
	}
}

// indexNodeLabel adds or removes the node's entries in every index on
// one label, for the properties the node actually stores. Called when
// the node gains or loses the label.
func (g *Graph) indexNodeLabel(n *Node, label SymID, add bool) {
	if len(g.indexes) == 0 {
		return
	}
	for key, idx := range g.indexes {
		if key.label != label {
			continue
		}
		v, ok := n.Props.Get(key.prop)
		if !ok {
			continue
		}
		if add {
			idx.add(g.tag, n.ID, v)
		} else {
			idx.remove(g.tag, n.ID, v)
		}
	}
}

// indexPropWrite records a property transition old→new on node n in
// every index on (one of n's labels, prop). had/has mark whether the
// property existed before/after (SET to null removes it). Called by
// SetNodeProp and the journal's property undo.
func (g *Graph) indexPropWrite(n *Node, prop SymID, old value.Value, had bool, new value.Value, has bool) {
	if len(g.indexes) == 0 {
		return
	}
	for _, l := range n.Labels {
		idx, ok := g.indexes[idxKey{l, prop}]
		if !ok {
			continue
		}
		if had {
			idx.remove(g.tag, n.ID, old)
		}
		if has {
			idx.add(g.tag, n.ID, new)
		}
	}
}

// ---------------------------------------------------------------------
// Journal undo entries for the schema operations
// ---------------------------------------------------------------------

type undoCreateIndex struct{ key IndexKey }

func (u undoCreateIndex) undo(g *Graph) { g.removeIndex(u.key) }

// undoDropIndex rebuilds the dropped index by rescanning the label.
// Undo entries replay in reverse order, so by the time this runs every
// data mutation recorded after the DROP has been rolled back — the
// rescan reproduces exactly the index as it stood before the drop.
type undoDropIndex struct{ key IndexKey }

func (u undoDropIndex) undo(g *Graph) { g.buildIndex(u.key) }
