package plan

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/value"
)

func writeCSV(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCSVReaderStreamsRows checks row-at-a-time binding with headers,
// including the short-row padding and empty-field-to-null conventions.
func TestCSVReaderStreamsRows(t *testing.T) {
	path := writeCSV(t, "id,name\n1,ada\n2,\n3\n")

	r, err := OpenCSV(path, "", true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var rows []value.Value
	for {
		v, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows = append(rows, v)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	m2 := rows[1].(value.Map)
	if !value.IsNull(m2["name"]) {
		t.Errorf("empty field should bind null, got %v", m2["name"])
	}
	m3 := rows[2].(value.Map)
	if !value.IsNull(m3["name"]) {
		t.Errorf("missing field should bind null, got %v", m3["name"])
	}

}

// TestCSVReaderListMode covers the no-headers list binding and custom
// field terminators.
func TestCSVReaderListMode(t *testing.T) {
	path := writeCSV(t, "a;b\nc;d\n")
	r, err := OpenCSV(path, ";", false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	v, ok, err := r.Next()
	if err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	lst := v.(value.List)
	if len(lst) != 2 || lst[0] != value.String("a") {
		t.Errorf("row = %v", lst)
	}
}

// TestLoadCSVOperatorEarlyExit: the operator must not read past the
// rows the consumer pulls — a malformed record beyond the cut-off is
// never reached.
func TestLoadCSVOperatorEarlyExit(t *testing.T) {
	content := "1\n2\n\"unterminated\n"
	path := writeCSV(t, content)
	r, err := OpenCSV(path, "", false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 2; i++ {
		if _, ok, err := r.Next(); !ok || err != nil {
			t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
		}
	}
	// The third record is malformed; the error surfaces only if pulled.
	if _, ok, err := r.Next(); ok || err == nil {
		t.Fatalf("malformed record: ok=%v err=%v, want error", ok, err)
	}
}
