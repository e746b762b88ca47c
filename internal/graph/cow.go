package graph

// Delta-granular copy-on-write containers.
//
// A committed epoch's graph is immutable while readers hold it, so a
// writer that must not disturb pinned readers used to deep-copy the
// whole graph — an O(graph) price for a possibly 1-row transaction.
// This file provides the structure-sharing containers that make such a
// writer O(changes) instead: the clone shares every bucket of every
// container with the published snapshot and copies only the buckets the
// transaction actually touches.
//
// # Ownership tags
//
// Every Graph carries a tag (a process-unique uint64), and every
// shareable unit — a map shard, an adjacency row, an index bucket, a
// stored *Node/*Rel — records the tag of the graph that created it.
// cloneCOW gives the clone a fresh tag and shares all units; a mutation
// then goes through a "writable" accessor that compares the unit's tag
// with the graph's and copies the unit first when they differ. Units
// copied (or created) by the writer carry the writer's tag, so the
// second touch is a plain in-place write.
//
// Every write transaction of the store works on such a clone, so a
// published graph is never written again: its buckets may be shared
// with older and newer epochs alike, and each writer copies exactly the
// ones it touches. No flags are ever written on shared structures —
// cloning only reads the parent — so concurrent readers of the parent
// snapshot race with nothing.
//
// # Sharding
//
// Entity ids are dense and monotonically allocated, so the id-keyed
// containers (nodes, rels, adjacency, label sets) are two-level: a
// private directory slice indexed by id>>shardBits pointing at shared
// shards of 2^shardBits ids. A shard is dense: a fixed array of values
// by id offset and a 512-bit presence bitmap, so a lookup is two
// indexings, iteration walks the bitmap in ascending id order, and a
// copy-on-write copy is one struct copy (4 KiB of pointers for nodes,
// the 64-byte bitmap alone for a label set). Cloning copies the
// directory (O(entities/2^shardBits) pointers — ~200 at 100k nodes).
// Ids are never reused, so deletes leave holes; a shard whose last id
// is deleted is released, and the shards held stay bounded by the live
// entities, not by the ids ever consumed.
//
// Labels, relationship types and property keys are interned in a
// symbol table (symbols.go) shared copy-on-write the same way: a clone
// shares it and the first new name a writer interns copies it. Index
// buckets are keyed by canonical value strings and use a fixed fan-out
// hash directory (strMap); each bucket is an ascending node-id slice,
// the copy unit, handed to seeks as a read-only view.

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// cowTagCounter allocates process-unique graph ownership tags.
var cowTagCounter atomic.Uint64

func newCowTag() uint64 { return cowTagCounter.Add(1) }

// shardBits sets the id-shard granularity: shards span 2^shardBits
// consecutive ids, so a copy-on-write touch copies one fixed-size shard
// while the clone-time directory copy is entities/2^shardBits pointers.
const (
	shardBits = 9
	shardSize = 1 << shardBits
)

// idShard is one shared unit of an idMap: the values of a 2^shardBits
// id range by offset, a presence bitmap, the number of ids present and
// the tag of the graph generation that may write it. A copy is one
// struct copy.
type idShard[V any] struct {
	vals    [shardSize]V
	present [shardSize / 64]uint64
	n       int
	owner   uint64
}

// idMap is a two-level map from positive int64 ids to values with
// shard-granular copy-on-write. The directory slice is private to one
// graph; shards are shared between graph generations until written,
// and a shard whose last id is deleted is released.
type idMap[V any] struct {
	shards []*idShard[V]
	n      int
}

// get returns the value stored for id.
func (m *idMap[V]) get(id int64) (V, bool) {
	if !m.has(id) {
		var zero V
		return zero, false
	}
	return m.shards[id>>shardBits].vals[id&(shardSize-1)], true
}

// has reports whether id is stored, reading only the presence bitmap.
func (m *idMap[V]) has(id int64) bool {
	si := uint64(id >> shardBits)
	if si >= uint64(len(m.shards)) || m.shards[si] == nil {
		return false
	}
	off := id & (shardSize - 1)
	return m.shards[si].present[off>>6]&(1<<(off&63)) != 0
}

// size reports the number of stored entries.
func (m *idMap[V]) size() int { return m.n }

// writable returns id's shard, first copying it when it is still shared
// with another graph generation (owner tag mismatch).
func (m *idMap[V]) writable(tag uint64, id int64) *idShard[V] {
	si := int(id >> shardBits)
	for si >= len(m.shards) {
		m.shards = append(m.shards, nil)
	}
	s := m.shards[si]
	switch {
	case s == nil:
		s = &idShard[V]{owner: tag}
		m.shards[si] = s
	case s.owner != tag:
		c := *s
		c.owner = tag
		s = &c
		m.shards[si] = s
	}
	return s
}

// put stores v under id, copying the containing shard first if shared.
func (m *idMap[V]) put(tag uint64, id int64, v V) {
	s := m.writable(tag, id)
	off := id & (shardSize - 1)
	if bit := uint64(1) << (off & 63); s.present[off>>6]&bit == 0 {
		s.present[off>>6] |= bit
		s.n++
		m.n++
	}
	s.vals[off] = v
}

// del removes id, releasing its shard when it was the shard's last id.
// Deleting an absent id is a no-op and copies nothing.
func (m *idMap[V]) del(tag uint64, id int64) {
	if _, ok := m.get(id); !ok {
		return
	}
	m.n--
	si := int(id >> shardBits)
	if m.shards[si].n == 1 {
		m.shards[si] = nil
		return
	}
	s := m.writable(tag, id)
	off := id & (shardSize - 1)
	s.present[off>>6] &^= 1 << (off & 63)
	var zero V
	s.vals[off] = zero
	s.n--
}

// each calls f for every entry, in ascending id order.
func (m *idMap[V]) each(f func(id int64, v V)) {
	for si, s := range m.shards {
		if s == nil {
			continue
		}
		for w, word := range s.present {
			for word != 0 {
				off := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				f(int64(si)<<shardBits|int64(off), s.vals[off])
			}
		}
	}
}

// ascendingIDs returns every id m stores, in ascending order.
func ascendingIDs[ID ~int64, V any](m *idMap[V]) []ID {
	out := make([]ID, 0, m.n)
	m.each(func(id int64, _ V) { out = append(out, ID(id)) })
	return out
}

// liveShards counts the shards the directory holds.
func (m *idMap[V]) liveShards() int {
	n := 0
	for _, s := range m.shards {
		if s != nil {
			n++
		}
	}
	return n
}

// cloneShared returns an idMap sharing every shard with m. The caller's
// graph tag differs from every shard's owner, so the first write to any
// shard copies it; m's side is never written again (it belongs to a
// published, immutable epoch).
func (m *idMap[V]) cloneShared() idMap[V] {
	return idMap[V]{shards: append([]*idShard[V](nil), m.shards...), n: m.n}
}

// adjRow is one node's cached adjacency row (out or in): its entries
// in ascending relationship id order. The slice is the copy-on-write
// unit: rows are shared across epochs and copied before the first
// append/remove by a new graph generation, so a published snapshot's
// adjacency is never resliced under a reader.
type adjRow struct {
	entries []AdjEntry
	owner   uint64
}

// adjWritable returns a mutable adjacency row for id, creating an empty
// one or copying a shared one as needed.
func (g *Graph) adjWritable(m *idMap[*adjRow], id NodeID) *adjRow {
	row, ok := m.get(int64(id))
	switch {
	case !ok:
		row = &adjRow{owner: g.tag}
		m.put(g.tag, int64(id), row)
	case row.owner != g.tag:
		row = &adjRow{entries: slices.Clone(row.entries), owner: g.tag}
		m.put(g.tag, int64(id), row)
	}
	return row
}

// adjEntries returns the (read-only) adjacency row stored for id.
func adjEntries(m *idMap[*adjRow], id NodeID) []AdjEntry {
	row, ok := m.get(int64(id))
	if !ok {
		return nil
	}
	return row.entries
}

// adjRemove deletes rid's entry from id's adjacency row, copying the
// row only when the entry is actually present.
func (g *Graph) adjRemove(m *idMap[*adjRow], id NodeID, rid RelID) {
	i, ok := entryIndex(adjEntries(m, id), rid)
	if !ok {
		return
	}
	row := g.adjWritable(m, id)
	row.entries = slices.Delete(row.entries, i, i+1)
}

// labelSet is the per-label node-id set, sharded like every id-keyed
// container so that adding one node to a 100k-node label copies one
// shard, not the whole set. Its shards hold only the presence bitmap.
type labelSet = idMap[struct{}]

// mutableNode returns the stored node for id, first replacing a node
// object shared with another epoch by a private copy (the node-level
// copy-on-write unit: its Labels and Props slices are mutated in
// place).
// It returns nil when the node does not exist.
func (g *Graph) mutableNode(id NodeID) *Node {
	n, ok := g.nodes.get(int64(id))
	if !ok {
		return nil
	}
	if n.owner != g.tag {
		n = copyNode(n)
		n.owner = g.tag
		g.nodes.put(g.tag, int64(id), n)
	}
	return n
}

// mutableRel is mutableNode for relationships.
func (g *Graph) mutableRel(id RelID) *Rel {
	r, ok := g.rels.get(int64(id))
	if !ok {
		return nil
	}
	if r.owner != g.tag {
		r = copyRel(r)
		r.owner = g.tag
		g.rels.put(g.tag, int64(id), r)
	}
	return r
}

// cloneCOW returns a graph that shares all unmodified structure with g
// and copies only what it later writes: the directories (shard slices,
// label/index catalogs) are copied eagerly — O(entities/2^shardBits +
// labels + indexes), a few hundred pointers for a 100k-node graph —
// while every shard, adjacency row, node, relationship and index bucket
// stays shared until touched. g must be immutable for as long as the
// clone lives (the store guarantees this: cloneCOW is only applied to
// published epochs, which are never written again).
func (g *Graph) cloneCOW() *Graph {
	ng := &Graph{
		tag:        newCowTag(),
		nodes:      g.nodes.cloneShared(),
		rels:       g.rels.cloneShared(),
		outgoing:   g.outgoing.cloneShared(),
		incoming:   g.incoming.cloneShared(),
		byLabel:    make([]labelSet, len(g.byLabel)),
		syms:       g.syms,
		nextNode:   g.nextNode,
		nextRel:    g.nextRel,
		version:    g.version,
		indexEpoch: g.indexEpoch,
		stats:      g.stats.clone(),
	}
	for l := range g.byLabel {
		ng.byLabel[l] = g.byLabel[l].cloneShared()
	}
	if len(g.indexes) > 0 {
		ng.indexes = make(map[idxKey]*propIndex, len(g.indexes))
		for k, x := range g.indexes {
			ng.indexes[k] = x.cloneShared()
		}
	}
	return ng
}

// strShardCount is the fixed fan-out of the string-keyed bucket
// directory inside each property index: a copy-on-write touch copies
// distinct-keys/strShardCount bucket pointers instead of the whole
// directory (~400 pointers per touched shard on a 100k-distinct-key
// index).
const strShardCount = 256

// strShard is one shared unit of a strMap: canonical value keys to
// bucket sets for 1/strShardCount of the key space.
type strShard struct {
	m     map[string]*idSetCOW
	owner uint64
}

// idSetCOW is one index bucket: the ascending ids of the nodes storing
// one canonical value, copied as a whole on first touch by a new graph
// generation (buckets are small — IndexAvgBucket-sized — by
// construction). Seeks hand the slice out as a read-only view.
type idSetCOW struct {
	ids   []NodeID
	owner uint64
}

// strMap is the sharded bucket directory of a property index.
type strMap struct {
	shards [strShardCount]*strShard
	keys   int // distinct canonical keys (len of the logical map)
}

// strShardIndex hashes a canonical value key to its shard (FNV-1a).
func strShardIndex(k string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= 1099511628211
	}
	return int(h % strShardCount)
}

// bucket returns the ascending node ids stored under key k, or nil.
func (m *strMap) bucket(k string) []NodeID {
	sh := m.shards[strShardIndex(k)]
	if sh == nil {
		return nil
	}
	if set := sh.m[k]; set != nil {
		return set.ids
	}
	return nil
}

// writableShard returns k's shard, copying a shared one first. The copy
// duplicates only bucket pointers; buckets stay shared until
// writableBucket touches them.
func (m *strMap) writableShard(tag uint64, k string) *strShard {
	si := strShardIndex(k)
	s := m.shards[si]
	switch {
	case s == nil:
		s = &strShard{m: make(map[string]*idSetCOW), owner: tag}
		m.shards[si] = s
	case s.owner != tag:
		c := &strShard{m: make(map[string]*idSetCOW, len(s.m)), owner: tag}
		for key, set := range s.m {
			c.m[key] = set
		}
		s = c
		m.shards[si] = s
	}
	return s
}

// writableBucket returns k's shard and a mutable bucket for k, creating
// an empty bucket (counted in keys) or copying a shared one as needed.
func (m *strMap) writableBucket(tag uint64, k string) (*strShard, *idSetCOW) {
	sh := m.writableShard(tag, k)
	set := sh.m[k]
	switch {
	case set == nil:
		set = &idSetCOW{owner: tag}
		sh.m[k] = set
		m.keys++
	case set.owner != tag:
		set = &idSetCOW{ids: slices.Clone(set.ids), owner: tag}
		sh.m[k] = set
	}
	return sh, set
}
