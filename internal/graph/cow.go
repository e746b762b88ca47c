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
// shards of up to 2^shardBits ids. Cloning copies the directory
// (O(entities/2^shardBits) pointers — ~200 at 100k nodes); touching an
// id copies one shard (O(2^shardBits)). Index buckets are keyed by
// canonical value strings and use a fixed fan-out hash directory
// (strMap) with per-bucket node sets as the copy unit.

import "sync/atomic"

// cowTagCounter allocates process-unique graph ownership tags.
var cowTagCounter atomic.Uint64

func newCowTag() uint64 { return cowTagCounter.Add(1) }

// shardBits sets the id-shard granularity: shards span 2^shardBits
// consecutive ids, so a copy-on-write touch pays at most that many map
// inserts while the clone-time directory copy is entities/2^shardBits.
const shardBits = 9

// idShard is one shared unit of an idMap: a plain map over a 2^shardBits
// id range plus the tag of the graph generation that may write it.
type idShard[V any] struct {
	m     map[int64]V
	owner uint64
}

// idMap is a two-level map from positive int64 ids to values with
// shard-granular copy-on-write. The directory slice is private to one
// graph; shards are shared between graph generations until written.
type idMap[V any] struct {
	shards []*idShard[V]
	n      int
}

// get returns the value stored for id.
func (m *idMap[V]) get(id int64) (V, bool) {
	si := int(id >> shardBits)
	if si < 0 || si >= len(m.shards) || m.shards[si] == nil {
		var zero V
		return zero, false
	}
	v, ok := m.shards[si].m[id]
	return v, ok
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
		s = &idShard[V]{m: make(map[int64]V), owner: tag}
		m.shards[si] = s
	case s.owner != tag:
		c := &idShard[V]{m: make(map[int64]V, len(s.m)), owner: tag}
		for k, v := range s.m {
			c.m[k] = v
		}
		s = c
		m.shards[si] = s
	}
	return s
}

// put stores v under id, copying the containing shard first if shared.
func (m *idMap[V]) put(tag uint64, id int64, v V) {
	s := m.writable(tag, id)
	if _, ok := s.m[id]; !ok {
		m.n++
	}
	s.m[id] = v
}

// del removes id. Deleting an absent id is a no-op and copies nothing.
func (m *idMap[V]) del(tag uint64, id int64) {
	si := int(id >> shardBits)
	if si < 0 || si >= len(m.shards) || m.shards[si] == nil {
		return
	}
	if _, ok := m.shards[si].m[id]; !ok {
		return
	}
	s := m.writable(tag, id)
	delete(s.m, id)
	m.n--
}

// each calls f for every entry, in no particular order (callers sort).
func (m *idMap[V]) each(f func(id int64, v V)) {
	for _, s := range m.shards {
		if s == nil {
			continue
		}
		for k, v := range s.m {
			f(k, v)
		}
	}
}

// cloneShared returns an idMap sharing every shard with m. The caller's
// graph tag differs from every shard's owner, so the first write to any
// shard copies it; m's side is never written again (it belongs to a
// published, immutable epoch).
func (m *idMap[V]) cloneShared() idMap[V] {
	return idMap[V]{shards: append([]*idShard[V](nil), m.shards...), n: m.n}
}

// adjRow is one node's cached sorted adjacency list (out or in). The
// slice is the copy-on-write unit: rows are shared across epochs and
// copied before the first append/remove by a new graph generation, so a
// published snapshot's adjacency is never resliced under a reader.
type adjRow struct {
	ids   []RelID
	owner uint64
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
		row = &adjRow{ids: append([]RelID(nil), row.ids...), owner: g.tag}
		m.put(g.tag, int64(id), row)
	}
	return row
}

// adjIDs returns the (read-only) adjacency list stored for id.
func adjIDs(m *idMap[*adjRow], id NodeID) []RelID {
	row, ok := m.get(int64(id))
	if !ok {
		return nil
	}
	return row.ids
}

// adjRemove deletes rid from id's adjacency list, copying the row only
// when rid is actually present.
func (g *Graph) adjRemove(m *idMap[*adjRow], id NodeID, rid RelID) {
	row, ok := m.get(int64(id))
	if !ok {
		return
	}
	found := false
	for _, x := range row.ids {
		if x == rid {
			found = true
			break
		}
	}
	if !found {
		return
	}
	row = g.adjWritable(m, id)
	row.ids = removeRelID(row.ids, rid)
}

// labelSet is the per-label node-id set, sharded like every id-keyed
// container so that adding one node to a 100k-node label copies one
// shard, not the whole set.
type labelSet = idMap[struct{}]

// mutableNode returns the stored node for id, first replacing a node
// object shared with another epoch by a private copy (the node-level
// copy-on-write unit: Labels and Props maps are mutated in place).
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
		byLabel:    make(map[string]*labelSet, len(g.byLabel)),
		nextNode:   g.nextNode,
		nextRel:    g.nextRel,
		version:    g.version,
		indexEpoch: g.indexEpoch,
		stats:      g.stats.clone(),
	}
	for l, set := range g.byLabel {
		cs := set.cloneShared()
		ng.byLabel[l] = &cs
	}
	if len(g.indexes) > 0 {
		ng.indexes = make(map[IndexKey]*propIndex, len(g.indexes))
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

// idSetCOW is one index bucket: the set of nodes storing one canonical
// value, copied as a whole on first touch by a new graph generation
// (buckets are small — IndexAvgBucket-sized — by construction).
type idSetCOW struct {
	m     map[NodeID]struct{}
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

// bucket returns the node set stored under key k, or nil.
func (m *strMap) bucket(k string) map[NodeID]struct{} {
	sh := m.shards[strShardIndex(k)]
	if sh == nil {
		return nil
	}
	if set := sh.m[k]; set != nil {
		return set.m
	}
	return nil
}

// writableShard returns k's shard, copying a shared one first. The copy
// duplicates only bucket pointers; bucket sets stay shared until
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
		set = &idSetCOW{m: make(map[NodeID]struct{}), owner: tag}
		sh.m[k] = set
		m.keys++
	case set.owner != tag:
		c := &idSetCOW{m: make(map[NodeID]struct{}, len(set.m)), owner: tag}
		for n := range set.m {
			c.m[n] = struct{}{}
		}
		set = c
		sh.m[k] = set
	}
	return sh, set
}
