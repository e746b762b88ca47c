package table

import (
	"testing"

	"repro/internal/value"
)

func TestAppendAndGet(t *testing.T) {
	tb := New("a", "b")
	tb.AppendRow(value.Int(1), value.String("x"))
	tb.AppendRow(value.NullValue, value.Int(2))
	if tb.Len() != 2 {
		t.Fatal("len")
	}
	if tb.Get(0, "a") != value.Int(1) || tb.Get(0, "b") != value.String("x") {
		t.Error("row 0")
	}
	if !value.IsNull(tb.Get(1, "a")) || tb.Get(1, "b") != value.Int(2) {
		t.Error("row 1")
	}
	if !value.IsNull(tb.Get(0, "zzz")) {
		t.Error("missing column should read null")
	}
}

func TestAppendRowWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	New("a").AppendRow(value.Int(1), value.Int(2))
}

func TestDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	New("a", "a")
}

func TestValues(t *testing.T) {
	tb := New("x", "y")
	tb.AppendRow(value.Int(1), value.NullValue)
	vs := tb.Values(0)
	if vs[0] != value.Int(1) || !value.IsNull(vs[1]) {
		t.Error("Values")
	}
	// Mutating the returned slice must not affect the table.
	vs[0] = value.Int(99)
	if tb.Get(0, "x") != value.Int(1) {
		t.Error("Values aliased")
	}
}

func TestCloneIndependence(t *testing.T) {
	tb := New("x")
	tb.AppendRow(value.Int(1))
	c := tb.Clone()
	c.Permute([]int{0})
	c.AppendRow(value.Int(3))
	tb.AppendRow(value.Int(2))
	if tb.Get(1, "x") != value.Int(2) || c.Get(1, "x") != value.Int(3) || c.Len() != 2 {
		t.Error("clone aliased")
	}
}

func TestReversePermute(t *testing.T) {
	tb := New("x")
	for i := 1; i <= 3; i++ {
		tb.AppendRow(value.Int(int64(i)))
	}
	tb.Reverse()
	if tb.Get(0, "x") != value.Int(3) || tb.Get(2, "x") != value.Int(1) {
		t.Error("Reverse")
	}
	tb.Permute([]int{2, 0, 1})
	if tb.Get(0, "x") != value.Int(1) || tb.Get(1, "x") != value.Int(3) {
		t.Error("Permute")
	}
}

func TestString(t *testing.T) {
	tb := New("x")
	tb.AppendRow(value.Int(1))
	if tb.String() == "" {
		t.Error("empty render")
	}
}

// TestAdoptedColumnsAreNeverWritten checks the sharing rules of the
// columnar layout: an empty table adopts the columns it is given, and
// neither a later append nor a reordering writes them.
func TestAdoptedColumnsAreNeverWritten(t *testing.T) {
	src := make([]value.Value, 3, 8)
	for i := range src {
		src[i] = value.Int(int64(i))
	}
	tb := New("x")
	tb.AppendColumns([][]value.Value{src}, 3)
	if tb.Len() != 3 || &tb.Column(0)[0] != &src[0] {
		t.Fatal("an empty table should adopt the columns it is given")
	}
	tb.AppendColumns([][]value.Value{{value.Int(9)}}, 1)
	tb.AppendRow(value.Int(10))
	tb.Reverse()
	tb.Permute([]int{1, 0, 2, 3, 4})
	if got := src[:cap(src)]; got[0] != value.Int(0) || got[2] != value.Int(2) || got[3] != nil {
		t.Errorf("adopted storage written: %v", got)
	}
	if tb.Get(0, "x") != value.Int(9) || tb.Get(1, "x") != value.Int(10) || tb.Get(4, "x") != value.Int(0) {
		t.Errorf("table after append and reorder:\n%s", tb)
	}
}
