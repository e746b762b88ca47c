package graph

// Identical: exact graph equality, id for id and bit for bit. The
// isomorphism checker of iso.go answers "equal up to id renaming"; the
// durability tests need something stricter — recovery must reproduce
// the committed graph exactly, ids, counters and float bit patterns
// included.

import (
	"fmt"
	"math"

	"repro/internal/value"
)

// Identical reports (as a nil error) whether a and b are exactly the
// same graph: same node and relationship ids, same labels, same
// properties with bit-identical values (NaN equals NaN; 1 and 1.0
// differ), same index definitions, and same id counters. Index
// contents are not compared: they are derived state, rebuilt from
// graph content, and their equivalence to a rescan is property-tested
// separately. A non-nil error names the first difference found.
func Identical(a, b *Graph) error {
	if a.nextNode != b.nextNode || a.nextRel != b.nextRel {
		return fmt.Errorf("id counters differ: (%d,%d) vs (%d,%d)", a.nextNode, a.nextRel, b.nextNode, b.nextRel)
	}
	if a.NumNodes() != b.NumNodes() {
		return fmt.Errorf("node counts differ: %d vs %d", a.NumNodes(), b.NumNodes())
	}
	if a.NumRels() != b.NumRels() {
		return fmt.Errorf("relationship counts differ: %d vs %d", a.NumRels(), b.NumRels())
	}
	for _, id := range a.NodeIDs() {
		na, nb := a.Node(id), b.Node(id)
		if nb == nil {
			return fmt.Errorf("node %d missing from second graph", id)
		}
		if len(na.Labels) != len(nb.Labels) {
			return fmt.Errorf("node %d label sets differ", id)
		}
		for _, l := range a.LabelNames(na) {
			if !b.HasLabel(nb, l) {
				return fmt.Errorf("node %d missing label %q in second graph", id, l)
			}
		}
		if err := identicalProps(a.PropMap(na.Props), b.PropMap(nb.Props)); err != nil {
			return fmt.Errorf("node %d: %w", id, err)
		}
	}
	for _, id := range a.RelIDs() {
		ra, rb := a.Rel(id), b.Rel(id)
		if rb == nil {
			return fmt.Errorf("relationship %d missing from second graph", id)
		}
		ta, tb := a.TypeName(ra), b.TypeName(rb)
		if ta != tb || ra.Src != rb.Src || ra.Tgt != rb.Tgt {
			return fmt.Errorf("relationship %d differs: %s(%d->%d) vs %s(%d->%d)",
				id, ta, ra.Src, ra.Tgt, tb, rb.Src, rb.Tgt)
		}
		if err := identicalProps(a.PropMap(ra.Props), b.PropMap(rb.Props)); err != nil {
			return fmt.Errorf("relationship %d: %w", id, err)
		}
	}
	ia, ib := a.Indexes(), b.Indexes()
	if len(ia) != len(ib) {
		return fmt.Errorf("index counts differ: %d vs %d", len(ia), len(ib))
	}
	for i := range ia {
		if ia[i] != ib[i] {
			return fmt.Errorf("index definitions differ: %v vs %v", ia[i], ib[i])
		}
	}
	return nil
}

func identicalProps(a, b value.Map) error {
	if len(a) != len(b) {
		return fmt.Errorf("property counts differ: %d vs %d", len(a), len(b))
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			return fmt.Errorf("property %q missing in second graph", k)
		}
		if !valueBitIdentical(va, vb) {
			return fmt.Errorf("property %q differs: %v vs %v", k, va, vb)
		}
	}
	return nil
}

// valueBitIdentical compares two runtime values exactly: same kind,
// and floats by bit pattern (so NaN matches NaN and 1.0 never matches
// the integer 1).
func valueBitIdentical(a, b value.Value) bool {
	switch x := a.(type) {
	case nil, value.Null:
		switch b.(type) {
		case nil, value.Null:
			return true
		}
		return false
	case value.Bool:
		y, ok := b.(value.Bool)
		return ok && x == y
	case value.Int:
		y, ok := b.(value.Int)
		return ok && x == y
	case value.Float:
		y, ok := b.(value.Float)
		return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	case value.String:
		y, ok := b.(value.String)
		return ok && x == y
	case value.List:
		y, ok := b.(value.List)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !valueBitIdentical(x[i], y[i]) {
				return false
			}
		}
		return true
	case value.Map:
		y, ok := b.(value.Map)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !valueBitIdentical(v, w) {
				return false
			}
		}
		return true
	default:
		// Entity values (Node, Rel, Path) are not storable as
		// properties; fall back to the interpreter's equality.
		return value.Equal(a, b) == value.True
	}
}
