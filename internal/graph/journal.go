package graph

import "repro/internal/value"

// Journal is an undo log giving statements all-or-nothing semantics: every
// mutation made while a journal is attached records its inverse, and
// Rollback replays the inverses in reverse order. This is how the engine
// guarantees that a failing statement (e.g. a revised-semantics SET
// conflict or strict DELETE error) leaves the graph untouched.
//
// The journal doubles as the change record of the commit pipeline: the
// entries describe exactly what a transaction touched, so the store
// derives the committed epoch's structural Delta from them (feed.go) —
// the copy-on-write commit path introduces no separate change tracking.
type Journal struct {
	g       *Graph
	entries []undoEntry
}

type undoEntry interface {
	undo(g *Graph)
}

// BeginJournal attaches a fresh journal to the graph and returns it.
// Only one journal may be active at a time; nesting panics, as it
// indicates an engine bug.
func (g *Graph) BeginJournal() *Journal {
	if g.journal != nil {
		panic("graph: nested journal")
	}
	j := &Journal{g: g}
	g.journal = j
	return j
}

func (j *Journal) record(e undoEntry) {
	j.entries = append(j.entries, e)
}

// Len reports the number of recorded mutations.
func (j *Journal) Len() int { return len(j.entries) }

// Mark returns a position in the journal to which RollbackTo can later
// rewind. Transactions use marks for statement-level rollback: a failed
// statement inside an open transaction is undone without disturbing the
// statements committed to the journal before it.
func (j *Journal) Mark() int { return len(j.entries) }

// RollbackTo undoes, in reverse order, every mutation recorded after
// the given mark, leaving the journal attached and the earlier entries
// intact.
func (j *Journal) RollbackTo(mark int) {
	for i := len(j.entries) - 1; i >= mark; i-- {
		j.entries[i].undo(j.g)
	}
	j.entries = j.entries[:mark]
}

// CheckDangling is the statement-boundary form of Graph.Validate: it
// returns the error Validate would return, reading only the mutations
// recorded after mark. That is sound when the graph had no dangling
// relationship at mark — graph.New, the codec and WAL replay reject
// them, CreateRel checks both endpoints, and the engine runs this check
// at every statement boundary — because only DeleteNodeUnchecked can
// then leave one, and it records an undoDeleteNode entry. A node still
// absent keeps exactly its non-empty adjacency rows (removeNodeInternal),
// and every id left in them is a dangling relationship. The lowest such
// id is Validate's first violation. Cost: O(entries since mark +
// relationships attached to deleted nodes).
func (j *Journal) CheckDangling(mark int) error {
	g := j.g
	first := RelID(0)
	for _, e := range j.entries[mark:] {
		u, ok := e.(undoDeleteNode)
		if !ok || g.HasNode(u.node.ID) {
			continue
		}
		for _, row := range [2][]AdjEntry{g.Outgoing(u.node.ID), g.Incoming(u.node.ID)} {
			// Rows are sorted, so only their first id can be the lowest.
			if len(row) > 0 && (first == 0 || row[0].Rel < first) {
				first = row[0].Rel
			}
		}
	}
	if first == 0 {
		return nil
	}
	return g.Rel(first).danglingError(g)
}

// Commit detaches the journal, keeping all mutations.
func (j *Journal) Commit() {
	j.g.journal = nil
	j.entries = nil
}

// Rollback detaches the journal and undoes all recorded mutations in
// reverse order, restoring the graph to its state at BeginJournal.
func (j *Journal) Rollback() {
	j.g.journal = nil
	for i := len(j.entries) - 1; i >= 0; i-- {
		j.entries[i].undo(j.g)
	}
	j.entries = nil
}

// Discard detaches the journal and abandons its entries without undoing
// them. The copy-on-write rollback path uses it: when a transaction's
// working graph is a structure-sharing clone, rolling back means
// throwing the clone away wholesale — replaying inverses onto a graph
// nobody will ever observe would be wasted work.
func (j *Journal) Discard() {
	j.g.journal = nil
	j.entries = nil
}

type undoCreateNode struct{ id NodeID }

func (u undoCreateNode) undo(g *Graph) {
	if n := g.Node(u.id); n != nil {
		g.removeNodeInternal(n)
	}
	g.outgoing.del(g.tag, int64(u.id))
	g.incoming.del(g.tag, int64(u.id))
}

type undoCreateRel struct{ id RelID }

func (u undoCreateRel) undo(g *Graph) {
	r := g.Rel(u.id)
	if r == nil {
		return
	}
	g.statsRel(r, -1)
	g.rels.del(g.tag, int64(u.id))
	g.adjRemove(&g.outgoing, r.Src, u.id)
	g.adjRemove(&g.incoming, r.Tgt, u.id)
}

type undoDeleteNode struct{ node *Node }

func (u undoDeleteNode) undo(g *Graph) { g.restoreNode(u.node) }

type undoDeleteRel struct{ rel *Rel }

func (u undoDeleteRel) undo(g *Graph) { g.restoreRel(u.rel) }

// undoSetNodeProp restores a property's value; old is nil when the
// property was absent (stored values are never nil or null).
type undoSetNodeProp struct {
	id  NodeID
	key SymID
	old value.Value
}

func (u undoSetNodeProp) undo(g *Graph) {
	if n := g.mutableNode(u.id); n != nil {
		g.setNodeProp(n, u.key, u.old)
	}
}

// undoSetRelProp is undoSetNodeProp for relationships.
type undoSetRelProp struct {
	id  RelID
	key SymID
	old value.Value
}

func (u undoSetRelProp) undo(g *Graph) {
	if r := g.mutableRel(u.id); r != nil {
		r.Props = r.Props.write(u.key, u.old)
	}
}

type undoAddLabel struct {
	id    NodeID
	label SymID
}

func (u undoAddLabel) undo(g *Graph) {
	if n := g.mutableNode(u.id); n != nil {
		g.removeLabel(n, u.label)
	}
}

type undoRemoveLabel struct {
	id    NodeID
	label SymID
}

func (u undoRemoveLabel) undo(g *Graph) {
	if n := g.mutableNode(u.id); n != nil {
		g.addLabel(n, u.label)
	}
}
