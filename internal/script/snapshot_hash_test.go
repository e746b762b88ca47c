package script

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// The snapshot format is a disk contract: whatever the in-memory
// representation of labels, types and property keys, the snapshot of
// each corpus script's final graph must stay byte for byte what it
// was. The golden SHA-256 sums were recorded before labels, types and
// keys were interned; a change to a script or to the format must
// re-record them deliberately.
func TestCorpusSnapshotHashes(t *testing.T) {
	golden := map[string]struct {
		dialect core.Dialect
		sum     string
	}{
		"paper_walkthrough.cypher": {core.DialectCypher9, "49fb9def373dd0b73496796f46114d058de0ab77b380e540fc6359f552f383a5"},
		"social.cypher":            {core.DialectRevised, "0eb0dc77d304f6fc00304251636e506b7b52f954007b11891d98d4970794c7e7"},
		"inventory.cypher":         {core.DialectRevised, "a3b6b35829b99343195a8b47cf3fc476aeef5806565be656b471b83b669d7c29"},
		"expressions.cypher":       {core.DialectRevised, "f8236546480a5da52607f529d09a1c5cdfc6f8dafadd323f4b9d8e83bb8485b8"},
	}
	for name, want := range golden {
		src, err := os.ReadFile(filepath.Join("..", "..", "scripts", name))
		if err != nil {
			t.Fatal(err)
		}
		g := graph.New()
		if _, err := Run(core.NewEngine(core.Config{Dialect: want.dialect}), g, string(src), nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want.sum {
			t.Errorf("%s: snapshot sha256 %s, want %s", name, got, want.sum)
		}
	}
}
