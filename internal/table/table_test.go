package table

import (
	"testing"

	"repro/internal/value"
)

func TestUnit(t *testing.T) {
	u := Unit()
	if u.Len() != 1 || len(u.Columns()) != 0 {
		t.Fatalf("Unit: %d rows, %d cols", u.Len(), len(u.Columns()))
	}
}

func TestAppendAndGet(t *testing.T) {
	tb := New("a", "b")
	tb.AppendRow(value.Int(1), value.String("x"))
	tb.AppendMap(map[string]value.Value{"b": value.Int(2)})
	if tb.Len() != 2 {
		t.Fatal("len")
	}
	if tb.Get(0, "a") != value.Int(1) || tb.Get(0, "b") != value.String("x") {
		t.Error("row 0")
	}
	if !value.IsNull(tb.Get(1, "a")) || tb.Get(1, "b") != value.Int(2) {
		t.Error("row 1: missing map column should be null")
	}
	if !value.IsNull(tb.Get(0, "zzz")) {
		t.Error("missing column should read null")
	}
	if !tb.HasColumn("a") || tb.HasColumn("zzz") {
		t.Error("HasColumn")
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

func TestRowAndValues(t *testing.T) {
	tb := New("x", "y")
	tb.AppendRow(value.Int(1), value.NullValue)
	m := tb.Row(0)
	if m["x"] != value.Int(1) || !value.IsNull(m["y"]) {
		t.Error("Row map")
	}
	vs := tb.Values(0)
	if vs[0] != value.Int(1) || !value.IsNull(vs[1]) {
		t.Error("Values")
	}
	// Mutating the returned map must not affect the table.
	m["x"] = value.Int(99)
	if tb.Get(0, "x") != value.Int(1) {
		t.Error("Row map aliased")
	}
}

func TestSet(t *testing.T) {
	tb := New("x")
	tb.AppendRow(value.Int(1))
	tb.Set(0, "x", value.Int(5))
	if tb.Get(0, "x") != value.Int(5) {
		t.Error("Set")
	}
}

func TestCloneIndependence(t *testing.T) {
	tb := New("x")
	tb.AppendRow(value.Int(1))
	c := tb.Clone()
	c.Set(0, "x", value.Int(2))
	c.AppendRow(value.Int(3))
	if tb.Get(0, "x") != value.Int(1) || tb.Len() != 1 {
		t.Error("clone aliased")
	}
	e := tb.CloneEmpty()
	if e.Len() != 0 || !e.HasColumn("x") {
		t.Error("CloneEmpty")
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
