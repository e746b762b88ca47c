package graph

import (
	"fmt"
	"sort"

	"repro/internal/value"
)

// EntityKind distinguishes node from relationship references in change sets.
type EntityKind int

// Entity kinds.
const (
	EntityNode EntityKind = iota
	EntityRel
)

// EntityRef identifies a node or relationship in a change set.
type EntityRef struct {
	Kind EntityKind
	ID   int64
}

// NodeRef returns an EntityRef for a node.
func NodeRef(id NodeID) EntityRef { return EntityRef{Kind: EntityNode, ID: int64(id)} }

// RelRef returns an EntityRef for a relationship.
func RelRef(id RelID) EntityRef { return EntityRef{Kind: EntityRel, ID: int64(id)} }

// String renders the reference for error messages ("node 3",
// "relationship 7").
func (e EntityRef) String() string {
	if e.Kind == EntityNode {
		return fmt.Sprintf("node %d", e.ID)
	}
	return fmt.Sprintf("relationship %d", e.ID)
}

// ConflictError reports two SET items in the same clause assigning
// non-equivalent values to the same property of the same entity — the
// situation of Example 2 in the paper, which the revised semantics turns
// into an error instead of a nondeterministic result.
type ConflictError struct {
	Entity   EntityRef
	Key      string
	Old, New value.Value
}

// Error implements error.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("conflicting SET: property %q of %s assigned both %s and %s",
		e.Key, e.Entity, e.Old, e.New)
}

type propChangeKey struct {
	entity EntityRef
	key    string
}

// ChangeSet accumulates the two relations of the revised SET semantics
// (Section 8.2): propchanges(T, s) and labchanges(T, s, n), plus label and
// property removals for REMOVE. All expressions are evaluated against the
// *input* graph before any change is applied; Apply then installs the
// whole set atomically. SetProp detects conflicting writes and returns a
// ConflictError, implementing the decision of Section 7.
type ChangeSet struct {
	props     map[propChangeKey]value.Value
	propOrder []propChangeKey
	addLabels map[NodeID]map[string]struct{}
	remLabels map[NodeID]map[string]struct{}
}

// NewChangeSet returns an empty change set.
func NewChangeSet() *ChangeSet {
	return &ChangeSet{
		props:     make(map[propChangeKey]value.Value),
		addLabels: make(map[NodeID]map[string]struct{}),
		remLabels: make(map[NodeID]map[string]struct{}),
	}
}

// SetProp records the assignment of v (null meaning removal) to a
// property. Recording the same value twice is permitted; recording a
// different value for an already-recorded (entity, key) pair is a
// conflict.
func (c *ChangeSet) SetProp(entity EntityRef, key string, v value.Value) error {
	if v == nil {
		v = value.NullValue
	}
	k := propChangeKey{entity: entity, key: key}
	if old, ok := c.props[k]; ok {
		if !value.Equivalent(old, v) {
			return &ConflictError{Entity: entity, Key: key, Old: old, New: v}
		}
		return nil
	}
	c.props[k] = v
	c.propOrder = append(c.propOrder, k)
	return nil
}

// RemoveProp records removal of a property (REMOVE item). Removals do not
// conflict with each other; a removal recorded against an entity/key also
// assigned a non-null value by SET in the same change set is a conflict.
func (c *ChangeSet) RemoveProp(entity EntityRef, key string) error {
	return c.SetProp(entity, key, value.NullValue)
}

// AddLabel records a label addition. Label changes never conflict
// (Section 8.2: "the latter relation is unproblematic").
func (c *ChangeSet) AddLabel(id NodeID, label string) {
	set, ok := c.addLabels[id]
	if !ok {
		set = make(map[string]struct{})
		c.addLabels[id] = set
	}
	set[label] = struct{}{}
}

// RemoveLabel records a label removal.
func (c *ChangeSet) RemoveLabel(id NodeID, label string) {
	set, ok := c.remLabels[id]
	if !ok {
		set = make(map[string]struct{})
		c.remLabels[id] = set
	}
	set[label] = struct{}{}
}

// Apply installs all accumulated changes into g and reports them by
// kind. Every recorded property write counts, a removal writing null,
// as Neo4j's propertiesSet counts them; a label counts only when it
// changed the node, so adding a label the node carries or removing one
// it lacks is not counted. Changes to entities that no longer exist are
// an error (the engine nulls references to deleted entities before SET
// can see them, so this indicates an engine bug).
func (c *ChangeSet) Apply(g *Graph) (props, added, removed int, err error) {
	for _, k := range c.propOrder {
		v := c.props[k]
		switch k.entity.Kind {
		case EntityNode:
			err = g.SetNodeProp(NodeID(k.entity.ID), k.key, v)
		case EntityRel:
			err = g.SetRelProp(RelID(k.entity.ID), k.key, v)
		}
		if err != nil {
			return 0, 0, 0, err
		}
	}
	for _, id := range sortedNodeKeys(c.addLabels) {
		for _, l := range sortedStringSet(c.addLabels[id]) {
			if n := g.Node(id); n != nil && g.HasLabel(n, l) {
				continue
			}
			if err := g.AddLabel(id, l); err != nil {
				return 0, 0, 0, err
			}
			added++
		}
	}
	for _, id := range sortedNodeKeys(c.remLabels) {
		for _, l := range sortedStringSet(c.remLabels[id]) {
			if n := g.Node(id); n != nil && !g.HasLabel(n, l) {
				continue
			}
			if err := g.RemoveLabel(id, l); err != nil {
				return 0, 0, 0, err
			}
			removed++
		}
	}
	return len(c.props), added, removed, nil
}

func sortedNodeKeys[V any](m map[NodeID]V) []NodeID {
	out := make([]NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedStringSet(s map[string]struct{}) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DeleteSet collects the entities a (DETACH) DELETE clause will remove,
// implementing the strict semantics of Section 7: all deletions are
// gathered first; for plain DELETE, deleting a node whose attached
// relationships are not all also being deleted is an error; for DETACH
// DELETE the attached relationships are added to the set. Apply removes
// everything at once.
type DeleteSet struct {
	nodes map[NodeID]struct{}
	rels  map[RelID]struct{}
}

// NewDeleteSet returns an empty delete set.
func NewDeleteSet() *DeleteSet {
	return &DeleteSet{
		nodes: make(map[NodeID]struct{}),
		rels:  make(map[RelID]struct{}),
	}
}

// AddNode marks a node for deletion.
func (d *DeleteSet) AddNode(id NodeID) { d.nodes[id] = struct{}{} }

// AddRel marks a relationship for deletion.
func (d *DeleteSet) AddRel(id RelID) { d.rels[id] = struct{}{} }

// HasNode reports whether the node is marked.
func (d *DeleteSet) HasNode(id NodeID) bool { _, ok := d.nodes[id]; return ok }

// HasRel reports whether the relationship is marked.
func (d *DeleteSet) HasRel(id RelID) bool { _, ok := d.rels[id]; return ok }

// Nodes returns the marked node ids in ascending order.
func (d *DeleteSet) Nodes() []NodeID {
	out := make([]NodeID, 0, len(d.nodes))
	for id := range d.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Rels returns the marked relationship ids in ascending order.
func (d *DeleteSet) Rels() []RelID {
	out := make([]RelID, 0, len(d.rels))
	for id := range d.rels {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Expand adds, for every marked node, all attached relationships
// (DETACH DELETE).
func (d *DeleteSet) Expand(g *Graph) {
	for id := range d.nodes {
		for _, e := range g.Outgoing(id) {
			d.rels[e.Rel] = struct{}{}
		}
		for _, e := range g.Incoming(id) {
			d.rels[e.Rel] = struct{}{}
		}
	}
}

// Check verifies that removing the set leaves no dangling relationships,
// returning a DanglingError naming the first offending node otherwise.
func (d *DeleteSet) Check(g *Graph) error {
	for _, id := range d.Nodes() {
		if !g.HasNode(id) {
			continue
		}
		attached := 0
		for _, e := range g.Outgoing(id) {
			if !d.HasRel(e.Rel) {
				attached++
			}
		}
		for _, e := range g.Incoming(id) {
			if !d.HasRel(e.Rel) {
				attached++
			}
		}
		if attached > 0 {
			return &DanglingError{Node: id, Attached: attached}
		}
	}
	return nil
}

// Apply removes all marked relationships, then all marked nodes. Callers
// must have run Check (or Expand) first; Apply reports an error if a node
// removal would dangle.
func (d *DeleteSet) Apply(g *Graph) error {
	for _, rid := range d.Rels() {
		g.DeleteRel(rid)
	}
	for _, nid := range d.Nodes() {
		if err := g.DeleteNode(nid); err != nil {
			return err
		}
	}
	return nil
}
