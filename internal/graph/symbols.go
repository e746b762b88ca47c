package graph

// Interned names.
//
// The model's labels, relationship types and property keys come from
// small sets, so a graph stores each name once, in an append-only
// symbol table, and its nodes and relationships hold the names' dense
// ids: a node's labels are a short sorted id slice, a relationship's
// type is an id, and properties are short (key id, value) slices.
// Labels, types and keys share one table.
//
// The table is shared copy-on-write like every other container of
// cow.go: a clone shares its parent's table, and the first name a
// writer interns copies it. Names are never removed, so an id, once
// given, means the same name in every later state of that table —
// names interned by a rolled-back statement simply stay. Ids are
// private to the process: the snapshot and the WAL store names and
// intern them on load, so two graphs with equal content may number
// their names differently (Identical and Isomorphic compare names).
//
// Every growth of a table takes a fresh process-unique stamp. A
// resolution made under one stamp (a match plan's, or a Resolve cache
// word's) stays valid while the graph's table carries that stamp.

import (
	"cmp"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/value"
)

// SymID is a graph's id for an interned label, relationship type or
// property key.
type SymID uint32

// symbols is a graph's append-only name table.
type symbols struct {
	names []string
	ids   map[string]SymID
	stamp uint64
	owner uint64
}

// symStampCounter allocates the process-unique table stamps.
var symStampCounter atomic.Uint64

func newSymbols(tag uint64) *symbols {
	return &symbols{ids: make(map[string]SymID), stamp: symStampCounter.Add(1), owner: tag}
}

// copyFor returns a private copy of s owned by tag.
func (s *symbols) copyFor(tag uint64) *symbols {
	c := &symbols{names: slices.Clone(s.names), ids: make(map[string]SymID, len(s.ids)), stamp: s.stamp, owner: tag}
	for k, v := range s.ids {
		c.ids[k] = v
	}
	return c
}

// Sym returns name's id, reporting false when no label, type or key of
// that name was ever interned in g (so no entity can carry it).
func (g *Graph) Sym(name string) (SymID, bool) {
	id, ok := g.syms.ids[name]
	return id, ok
}

// SymName returns the name interned as id.
func (g *Graph) SymName(id SymID) string { return g.syms.names[id] }

// SymStamp identifies the current contents of g's symbol table: it
// changes whenever a name is interned, so ids resolved under one stamp
// hold while the stamp stands.
func (g *Graph) SymStamp() uint64 { return g.syms.stamp }

// intern returns name's id, adding the name first when it is new.
func (g *Graph) intern(name string) SymID {
	if id, ok := g.syms.ids[name]; ok {
		return id
	}
	if g.syms.owner != g.tag {
		g.syms = g.syms.copyFor(g.tag)
	}
	s := g.syms
	id := SymID(len(s.names))
	name = strings.Clone(name) // not the statement text it was cut from
	s.names = append(s.names, name)
	s.ids[name] = id
	s.stamp = symStampCounter.Add(1)
	return id
}

// Cached resolutions pack a stamp and an id into one word: the low
// cacheIDBits bits hold the id (cacheMiss for a name not interned), the
// rest the stamp.
const (
	cacheIDBits = 24
	cacheMiss   = 1<<cacheIDBits - 1
)

// Resolve is Sym through a cache word the caller keeps beside the name
// (an expression node's): while g's table keeps the stamp the word was
// written under, it answers without hashing the name. Any number of
// goroutines may share one word.
func (g *Graph) Resolve(name string, cache *atomic.Uint64) (SymID, bool) {
	stamp := g.syms.stamp
	if w := cache.Load(); w>>cacheIDBits == stamp && w != 0 {
		id := SymID(w & cacheMiss)
		return id, id != cacheMiss
	}
	id, ok := g.syms.ids[name]
	if stamp < 1<<(64-cacheIDBits) && (!ok || id < cacheMiss) {
		w := stamp<<cacheIDBits | cacheMiss
		if ok {
			w = stamp<<cacheIDBits | uint64(id)
		}
		cache.Store(w)
	}
	return id, ok
}

// Prop is one stored property: an interned key and its (non-null)
// value.
type Prop struct {
	Key SymID
	Val value.Value
}

// Props is a node's or relationship's property list, ascending by key
// id. It is short, so lookups scan it.
type Props []Prop

// Get returns the value stored under key.
func (ps Props) Get(key SymID) (value.Value, bool) {
	for _, p := range ps {
		if p.Key == key {
			return p.Val, true
		}
	}
	return nil, false
}

// set stores v under key, keeping the list sorted.
func (ps Props) set(key SymID, v value.Value) Props {
	i, found := slices.BinarySearchFunc(ps, key, func(p Prop, k SymID) int { return cmp.Compare(p.Key, k) })
	if found {
		ps[i].Val = v
		return ps
	}
	return slices.Insert(ps, i, Prop{Key: key, Val: v})
}

// write stores v under key, or removes key when v is null.
func (ps Props) write(key SymID, v value.Value) Props {
	if !value.IsNull(v) {
		return ps.set(key, v)
	}
	for i, p := range ps {
		if p.Key == key {
			return slices.Delete(ps, i, i+1)
		}
	}
	return ps
}

// Labels is a node's label set: ascending label ids.
type Labels []SymID

// Has reports whether the set holds label.
func (ls Labels) Has(label SymID) bool {
	for _, l := range ls {
		if l == label {
			return true
		}
	}
	return false
}

// propsOf interns a property map's keys into a sorted list, dropping
// nulls (iota(n,k)=null means "absent").
func (g *Graph) propsOf(m value.Map) Props {
	ps := make(Props, 0, len(m))
	for k, v := range m {
		if !value.IsNull(v) {
			ps = append(ps, Prop{Key: g.intern(k), Val: v})
		}
	}
	slices.SortFunc(ps, func(a, b Prop) int { return cmp.Compare(a.Key, b.Key) })
	return ps
}

// labelsOf interns label names into a sorted, duplicate-free set.
func (g *Graph) labelsOf(names []string) Labels {
	ls := make(Labels, 0, len(names))
	for _, l := range names {
		ls = append(ls, g.intern(l))
	}
	slices.Sort(ls)
	return slices.Compact(ls)
}

// PropMap returns a property list as a value.Map keyed by name (a
// fresh map the caller may keep).
func (g *Graph) PropMap(ps Props) value.Map {
	m := make(value.Map, len(ps))
	for _, p := range ps {
		m[g.syms.names[p.Key]] = p.Val
	}
	return m
}

// Prop returns the value a property list stores under the named key.
func (g *Graph) Prop(ps Props, key string) (value.Value, bool) {
	if id, ok := g.syms.ids[key]; ok {
		return ps.Get(id)
	}
	return nil, false
}

// LabelNames returns a node's labels by name, sorted.
func (g *Graph) LabelNames(n *Node) []string {
	out := make([]string, len(n.Labels))
	for i, l := range n.Labels {
		out[i] = g.syms.names[l]
	}
	slices.Sort(out)
	return out
}

// HasLabel reports whether node n carries the named label.
func (g *Graph) HasLabel(n *Node, label string) bool {
	id, ok := g.syms.ids[label]
	return ok && n.Labels.Has(id)
}

// TypeName returns a relationship's type by name.
func (g *Graph) TypeName(r *Rel) string { return g.syms.names[r.Type] }

// NodeProp returns node id's property key, nil when the node or the
// property is absent.
func (g *Graph) NodeProp(id NodeID, key string) value.Value {
	if n := g.Node(id); n != nil {
		v, _ := g.Prop(n.Props, key)
		return v
	}
	return nil
}
