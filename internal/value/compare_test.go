package value

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTriLogic(t *testing.T) {
	// Kleene truth tables.
	if True.And(Unknown) != Unknown || False.And(Unknown) != False {
		t.Error("And truth table broken")
	}
	if True.Or(Unknown) != True || False.Or(Unknown) != Unknown {
		t.Error("Or truth table broken")
	}
	if True.Xor(False) != True || True.Xor(True) != False || True.Xor(Unknown) != Unknown {
		t.Error("Xor truth table broken")
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("Not truth table broken")
	}
	if True.Value() != Bool(true) || False.Value() != Bool(false) || !IsNull(Unknown.Value()) {
		t.Error("Value conversion broken")
	}
}

func TestTriOf(t *testing.T) {
	if tr, ok := TriOf(Bool(true)); !ok || tr != True {
		t.Error("TriOf(true)")
	}
	if tr, ok := TriOf(NullValue); !ok || tr != Unknown {
		t.Error("TriOf(null)")
	}
	if _, ok := TriOf(Int(1)); ok {
		t.Error("TriOf(Int) should not be ok")
	}
}

func TestEqualTernary(t *testing.T) {
	cases := []struct {
		a, b Value
		want Tri
	}{
		{NullValue, NullValue, Unknown},
		{NullValue, Int(1), Unknown},
		{Int(1), Int(1), True},
		{Int(1), Int(2), False},
		{Int(1), Float(1.0), True},
		{Float(0.5), Float(0.5), True},
		{Float(math.NaN()), Float(math.NaN()), False},
		{Int(1), String("1"), False},
		{String("a"), String("a"), True},
		{Bool(true), Bool(true), True},
		{Bool(true), Bool(false), False},
		{Node{ID: 1}, Node{ID: 1}, True},
		{Node{ID: 1}, Node{ID: 2}, False},
		{Node{ID: 1}, Rel{ID: 1}, False},
		{List{Int(1), Int(2)}, List{Int(1), Int(2)}, True},
		{List{Int(1)}, List{Int(1), Int(2)}, False},
		{List{Int(1), NullValue}, List{Int(1), NullValue}, Unknown},
		{List{Int(1), NullValue}, List{Int(2), NullValue}, False},
		{Map{"a": Int(1)}, Map{"a": Int(1)}, True},
		{Map{"a": Int(1)}, Map{"a": Int(2)}, False},
		{Map{"a": Int(1)}, Map{"b": Int(1)}, False},
		{Map{"a": NullValue}, Map{"a": NullValue}, Unknown},
		{Map{"a": Int(1)}, Map{"a": Int(1), "b": Int(2)}, False},
		{Path{Nodes: []int64{1, 2}, Rels: []int64{5}}, Path{Nodes: []int64{1, 2}, Rels: []int64{5}}, True},
		{Path{Nodes: []int64{1, 2}, Rels: []int64{5}}, Path{Nodes: []int64{1, 3}, Rels: []int64{5}}, False},
	}
	for _, c := range cases {
		if got := Equal(c.a, c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEquivalent(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{NullValue, NullValue, true},
		{NullValue, Int(0), false},
		{nil, NullValue, true},
		{Int(1), Float(1.0), true},
		{Float(math.NaN()), Float(math.NaN()), true},
		{Float(math.NaN()), Float(1), false},
		{List{NullValue}, List{NullValue}, true},
		{List{NullValue}, List{Int(1)}, false},
		{Map{"a": NullValue}, Map{"a": NullValue}, true},
		{Map{"a": Int(1)}, Map{}, false},
		{String("x"), String("x"), true},
		{Bool(true), Int(1), false},
		{Path{Nodes: []int64{1}, Rels: nil}, Path{Nodes: []int64{1}, Rels: nil}, true},
	}
	for _, c := range cases {
		if got := Equivalent(c.a, c.b); got != c.want {
			t.Errorf("Equivalent(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: Key agrees exactly with Equivalent on generated scalar values.
func TestKeyMatchesEquivalent(t *testing.T) {
	gen := func(seed int64) Value {
		switch seed % 7 {
		case 0:
			return NullValue
		case 1:
			return Bool(seed%2 == 0)
		case 2:
			return Int(seed % 5)
		case 3:
			return Float(float64(seed%5) / 2)
		case 4:
			return String(string(rune('a' + seed%3)))
		case 5:
			return List{Int(seed % 3), NullValue}
		default:
			return Map{"k": Int(seed % 3)}
		}
	}
	f := func(x, y int64) bool {
		a, b := gen(abs64(x)), gen(abs64(y))
		return (Key(a) == Key(b)) == Equivalent(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		if x == math.MinInt64 {
			return 0
		}
		return -x
	}
	return x
}

func TestKeyIntFloatUnify(t *testing.T) {
	if Key(Int(1)) != Key(Float(1.0)) {
		t.Error("Key(1) != Key(1.0)")
	}
	if Key(Float(1.5)) == Key(Int(1)) {
		t.Error("Key(1.5) == Key(1)")
	}
	if Key(Float(math.NaN())) != Key(Float(math.NaN())) {
		t.Error("NaN keys differ")
	}
	if string(AppendKeyList(nil, []Value{Int(1), Int(2)})) == string(AppendKeyList(nil, []Value{Int(12)})) {
		t.Error("AppendKeyList ambiguity between [1,2] and [12]")
	}
}

func TestMapKeyIgnoresNullProps(t *testing.T) {
	a := Map{"id": NullValue}
	b := Map{}
	if MapKey(a) != MapKey(b) {
		t.Errorf("MapKey should treat null-valued keys as absent: %q vs %q", MapKey(a), MapKey(b))
	}
	c := Map{"id": Int(1)}
	if MapKey(a) == MapKey(c) {
		t.Error("MapKey collision between null and 1")
	}
}

func TestCompareOrderTotalOrder(t *testing.T) {
	vals := []Value{
		Map{"a": Int(1)}, Node{ID: 1}, Rel{ID: 1}, List{Int(1)},
		Path{Nodes: []int64{1}}, String("s"), Bool(false), Bool(true),
		Int(1), Int(2), Float(2.5), Float(math.NaN()), NullValue,
	}
	sorted := make([]Value, len(vals))
	copy(sorted, vals)
	sort.SliceStable(sorted, func(i, j int) bool { return CompareOrder(sorted[i], sorted[j]) < 0 })
	// Null must sort last; map kinds first.
	if !IsNull(sorted[len(sorted)-1]) {
		t.Errorf("null should sort last, got %v", sorted[len(sorted)-1])
	}
	if sorted[0].Kind() != KindMap {
		t.Errorf("map should sort first, got %v", sorted[0])
	}
	// Antisymmetry + reflexivity on the sample.
	for _, a := range vals {
		if CompareOrder(a, a) != 0 {
			t.Errorf("CompareOrder(%v, %v) != 0", a, a)
		}
		for _, b := range vals {
			if CompareOrder(a, b) != -CompareOrder(b, a) {
				// Allow sign asymmetry magnitude, only direction matters.
				ab, ba := CompareOrder(a, b), CompareOrder(b, a)
				if (ab < 0) == (ba < 0) && ab != 0 && ba != 0 {
					t.Errorf("CompareOrder not antisymmetric on %v, %v", a, b)
				}
			}
		}
	}
}

func TestCompareOrderTransitivity(t *testing.T) {
	vals := []Value{
		NullValue, Bool(true), Bool(false), Int(-1), Int(3), Float(2.2),
		Float(math.NaN()), String("a"), String("b"), List{Int(1)},
		List{Int(1), Int(2)}, Map{}, Map{"a": Int(1)}, Node{ID: 5}, Rel{ID: 5},
	}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				if CompareOrder(a, b) <= 0 && CompareOrder(b, c) <= 0 && CompareOrder(a, c) > 0 {
					t.Fatalf("transitivity violated: %v <= %v <= %v but %v > %v", a, b, c, a, c)
				}
			}
		}
	}
}

func TestLessTernary(t *testing.T) {
	cases := []struct {
		a, b Value
		want Tri
	}{
		{Int(1), Int(2), True},
		{Int(2), Int(1), False},
		{Int(1), Float(1.5), True},
		{Float(math.NaN()), Int(1), Unknown},
		{NullValue, Int(1), Unknown},
		{String("a"), String("b"), True},
		{String("b"), String("a"), False},
		{Bool(false), Bool(true), True},
		{Int(1), String("a"), Unknown},
		{List{Int(1)}, List{Int(2)}, True},
		{List{Int(1)}, List{Int(1), Int(2)}, True},
		{List{NullValue}, List{Int(1)}, Unknown},
	}
	for _, c := range cases {
		if got := Less(c.a, c.b); got != c.want {
			t.Errorf("Less(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: Equivalent is an equivalence relation (reflexive, symmetric)
// on arbitrary scalar values built via quick.
func TestEquivalentReflexiveSymmetric(t *testing.T) {
	f := func(i int64, s string, b bool, fl float64) bool {
		vals := []Value{Int(i), String(s), Bool(b), Float(fl), NullValue,
			List{Int(i), String(s)}, Map{"a": Float(fl)}}
		for _, v := range vals {
			if !Equivalent(v, v) {
				return false
			}
		}
		for _, v := range vals {
			for _, w := range vals {
				if Equivalent(v, w) != Equivalent(w, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: where Less is defined (returns True/False), it agrees with
// the global orderability CompareOrder.
func TestLessConsistentWithCompareOrder(t *testing.T) {
	vals := []Value{
		Int(-3), Int(0), Int(7), Float(-1.5), Float(2.5), Float(7),
		String(""), String("a"), String("zz"), Bool(false), Bool(true),
	}
	for _, a := range vals {
		for _, b := range vals {
			switch Less(a, b) {
			case True:
				if CompareOrder(a, b) >= 0 {
					t.Errorf("Less(%v,%v)=true but CompareOrder=%d", a, b, CompareOrder(a, b))
				}
			case False:
				// a >= b under comparability; orderability must agree
				// unless they are equal.
				if CompareOrder(a, b) < 0 && Equal(a, b) != True {
					t.Errorf("Less(%v,%v)=false but CompareOrder=%d", a, b, CompareOrder(a, b))
				}
			}
		}
	}
}

// Property: Equal==True implies Equivalent, and Equivalent implies
// CompareOrder == 0, on a mixed sample.
func TestEqualityLattice(t *testing.T) {
	vals := []Value{
		NullValue, Int(1), Float(1.0), Float(1.5), String("a"), Bool(true),
		List{Int(1)}, List{Float(1.0)}, Map{"k": Int(2)}, Map{"k": Float(2)},
		Node{ID: 3}, Rel{ID: 3},
	}
	for _, a := range vals {
		for _, b := range vals {
			if Equal(a, b) == True && !Equivalent(a, b) {
				t.Errorf("Equal(%v,%v)=true but not Equivalent", a, b)
			}
			if Equivalent(a, b) && CompareOrder(a, b) != 0 {
				t.Errorf("Equivalent(%v,%v) but CompareOrder=%d", a, b, CompareOrder(a, b))
			}
		}
	}
}
