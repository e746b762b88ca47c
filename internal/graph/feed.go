package graph

// The change feed: every committed epoch carries a structural Delta
// describing the net effect of its transaction, derived from the
// transaction's undo journal at commit time. Consumers subscribe with
// Store.OnCommit or read Snapshot.Delta off a pinned epoch; the deltas
// are the hook the incremental-view-maintenance direction needs
// (maintain a materialized view by applying per-epoch deltas instead of
// recomputing), and the natural unit for cross-epoch batching or
// replication.

import "sort"

// NodeLabel identifies one (node, label) pair in a Delta.
type NodeLabel struct {
	Node  NodeID
	Label string
}

// PropTouch identifies one property written (set or removed) by a
// transaction. The delta records which properties changed, not their
// values: a consumer reads current values from the committed snapshot
// the delta arrived with.
type PropTouch struct {
	Entity EntityRef
	Key    string
}

// Delta is the net structural change one committed transaction applied,
// relative to the previous epoch. Entities both created and deleted
// within the transaction cancel out and do not appear; property and
// label changes on entities the same transaction created or deleted are
// absorbed into the creation/deletion entries. A property set back to
// its original value still registers as touched (the journal records
// writes, not value transitions) — deltas are a conservative superset
// of the true content difference. All slices are sorted.
type Delta struct {
	// Epoch is the committed epoch this delta produced.
	Epoch int64

	// NodesCreated and NodesDeleted list surviving entity creations and
	// deletions of pre-existing entities.
	NodesCreated []NodeID
	NodesDeleted []NodeID
	// RelsCreated and RelsDeleted are the relationship counterparts.
	RelsCreated []RelID
	RelsDeleted []RelID

	// PropsTouched lists properties written on entities that existed
	// before the transaction and survived it.
	PropsTouched []PropTouch
	// LabelsAdded and LabelsRemoved list net label changes on surviving
	// pre-existing nodes.
	LabelsAdded   []NodeLabel
	LabelsRemoved []NodeLabel

	// IndexesCreated and IndexesDropped list net schema changes.
	IndexesCreated []IndexKey
	IndexesDropped []IndexKey
}

// Empty reports whether the delta carries no change at all.
func (d *Delta) Empty() bool {
	return d == nil ||
		len(d.NodesCreated) == 0 && len(d.NodesDeleted) == 0 &&
			len(d.RelsCreated) == 0 && len(d.RelsDeleted) == 0 &&
			len(d.PropsTouched) == 0 &&
			len(d.LabelsAdded) == 0 && len(d.LabelsRemoved) == 0 &&
			len(d.IndexesCreated) == 0 && len(d.IndexesDropped) == 0
}

// netDelta derives a transaction's net Delta from its journal entries.
// It returns nil when the transaction made no net change. The journal
// is the single source of truth for "what changed": every mutation
// path records an entry, and RollbackTo has already trimmed entries for
// statement-level rollbacks, so netting the remaining entries in order
// yields exactly the epoch-to-epoch difference (up to the value-blind
// PropTouch conservatism documented on Delta). The store derives
// lazily — on the first Snapshot.Delta call or, when OnCommit hooks
// are registered, at commit time — so delta-free workloads never pay
// the netting pass.
func netDelta(g *Graph, entries []undoEntry) *Delta {
	if len(entries) == 0 {
		return nil
	}
	nodes := map[NodeID]int{} // +1 created here, -1 pre-existing deleted
	rels := map[RelID]int{}   // same
	// nodeChurn/relChurn record every entity the transaction created or
	// deleted at any point — including created-then-deleted churn whose
	// net count is zero — so their property/label writes are absorbed.
	nodeChurn := map[NodeID]struct{}{}
	relChurn := map[RelID]struct{}{}
	props := map[PropTouch]struct{}{}
	labels := map[NodeLabel]int{} // net +1 added, -1 removed
	indexes := map[IndexKey]int{} // net +1 created, -1 dropped
	for _, e := range entries {
		switch u := e.(type) {
		case undoCreateNode:
			nodes[u.id]++
			nodeChurn[u.id] = struct{}{}
		case undoDeleteNode:
			nodes[u.node.ID]--
			nodeChurn[u.node.ID] = struct{}{}
		case undoCreateRel:
			rels[u.id]++
			relChurn[u.id] = struct{}{}
		case undoDeleteRel:
			rels[u.rel.ID]--
			relChurn[u.rel.ID] = struct{}{}
		case undoSetNodeProp:
			props[PropTouch{Entity: NodeRef(u.id), Key: g.SymName(u.key)}] = struct{}{}
		case undoSetRelProp:
			props[PropTouch{Entity: RelRef(u.id), Key: g.SymName(u.key)}] = struct{}{}
		case undoAddLabel:
			labels[NodeLabel{Node: u.id, Label: g.SymName(u.label)}]++
		case undoRemoveLabel:
			labels[NodeLabel{Node: u.id, Label: g.SymName(u.label)}]--
		case undoCreateIndex:
			indexes[u.key]++
		case undoDropIndex:
			indexes[u.key]--
		}
	}
	d := &Delta{}
	for id, c := range nodes {
		switch {
		case c > 0:
			d.NodesCreated = append(d.NodesCreated, id)
		case c < 0:
			d.NodesDeleted = append(d.NodesDeleted, id)
		}
	}
	for id, c := range rels {
		switch {
		case c > 0:
			d.RelsCreated = append(d.RelsCreated, id)
		case c < 0:
			d.RelsDeleted = append(d.RelsDeleted, id)
		}
	}
	// Property and label changes on entities this transaction created or
	// deleted (even transiently) are absorbed by the creation/deletion
	// entries — or vanished with the entity.
	churned := func(e EntityRef) bool {
		if e.Kind == EntityNode {
			_, ok := nodeChurn[NodeID(e.ID)]
			return ok
		}
		_, ok := relChurn[RelID(e.ID)]
		return ok
	}
	for t := range props {
		if !churned(t.Entity) {
			d.PropsTouched = append(d.PropsTouched, t)
		}
	}
	for nl, c := range labels {
		if _, ok := nodeChurn[nl.Node]; ok || c == 0 {
			continue
		}
		if c > 0 {
			d.LabelsAdded = append(d.LabelsAdded, nl)
		} else {
			d.LabelsRemoved = append(d.LabelsRemoved, nl)
		}
	}
	for k, c := range indexes {
		switch {
		case c > 0:
			d.IndexesCreated = append(d.IndexesCreated, k)
		case c < 0:
			d.IndexesDropped = append(d.IndexesDropped, k)
		}
	}
	if d.Empty() {
		return nil
	}
	d.sort()
	return d
}

func (d *Delta) sort() {
	sort.Slice(d.NodesCreated, func(i, j int) bool { return d.NodesCreated[i] < d.NodesCreated[j] })
	sort.Slice(d.NodesDeleted, func(i, j int) bool { return d.NodesDeleted[i] < d.NodesDeleted[j] })
	sort.Slice(d.RelsCreated, func(i, j int) bool { return d.RelsCreated[i] < d.RelsCreated[j] })
	sort.Slice(d.RelsDeleted, func(i, j int) bool { return d.RelsDeleted[i] < d.RelsDeleted[j] })
	sort.Slice(d.PropsTouched, func(i, j int) bool {
		a, b := d.PropsTouched[i], d.PropsTouched[j]
		if a.Entity.Kind != b.Entity.Kind {
			return a.Entity.Kind < b.Entity.Kind
		}
		if a.Entity.ID != b.Entity.ID {
			return a.Entity.ID < b.Entity.ID
		}
		return a.Key < b.Key
	})
	labelLess := func(s []NodeLabel) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].Node != s[j].Node {
				return s[i].Node < s[j].Node
			}
			return s[i].Label < s[j].Label
		}
	}
	sort.Slice(d.LabelsAdded, labelLess(d.LabelsAdded))
	sort.Slice(d.LabelsRemoved, labelLess(d.LabelsRemoved))
	indexLess := func(s []IndexKey) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].Label != s[j].Label {
				return s[i].Label < s[j].Label
			}
			return s[i].Prop < s[j].Prop
		}
	}
	sort.Slice(d.IndexesCreated, indexLess(d.IndexesCreated))
	sort.Slice(d.IndexesDropped, indexLess(d.IndexesDropped))
}
