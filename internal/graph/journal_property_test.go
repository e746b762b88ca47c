package graph

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// randomMutation applies one random mutation to g, using only ids that
// currently exist (plus occasional misses to exercise no-op paths).
func randomMutation(rng *rand.Rand, g *Graph) {
	pickNode := func() (NodeID, bool) {
		ids := g.NodeIDs()
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	pickRel := func() (RelID, bool) {
		ids := g.RelIDs()
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	switch rng.Intn(10) {
	case 0, 1:
		g.CreateNode([]string{"L" + string(rune('A'+rng.Intn(3)))},
			value.Map{"v": value.Int(int64(rng.Intn(5)))})
	case 2:
		a, ok1 := pickNode()
		b, ok2 := pickNode()
		if ok1 && ok2 {
			g.CreateRel(a, b, "T", value.Map{"w": value.Int(int64(rng.Intn(3)))})
		}
	case 3:
		if id, ok := pickNode(); ok {
			g.SetNodeProp(id, "p", value.Int(int64(rng.Intn(9))))
		}
	case 4:
		if id, ok := pickNode(); ok {
			g.SetNodeProp(id, "p", value.NullValue)
		}
	case 5:
		if id, ok := pickRel(); ok {
			g.SetRelProp(id, "w", value.Int(int64(rng.Intn(9))))
		}
	case 6:
		if id, ok := pickNode(); ok {
			g.AddLabel(id, "Extra")
		}
	case 7:
		if id, ok := pickNode(); ok {
			g.RemoveLabel(id, "Extra")
		}
	case 8:
		if id, ok := pickRel(); ok {
			g.DeleteRel(id)
		}
	case 9:
		if id, ok := pickNode(); ok {
			g.DetachDeleteNode(id)
		}
	}
}

// Property: for any random mutation sequence executed under a journal,
// Rollback restores the exact pre-journal fingerprint, and a subsequent
// identical replay under Commit matches a journal-free execution.
func TestJournalRollbackRandomSequences(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		seed := int64(trial * 7)
		rng := rand.New(rand.NewSource(seed))
		g := New()
		// Random base graph.
		for i := 0; i < 10+rng.Intn(10); i++ {
			randomMutation(rng, g)
		}
		before := Fingerprint(g)

		// Journaled mutations, then rollback.
		j := g.BeginJournal()
		steps := 20 + rng.Intn(30)
		for i := 0; i < steps; i++ {
			randomMutation(rng, g)
		}
		j.Rollback()
		if Fingerprint(g) != before {
			t.Fatalf("trial %d: rollback did not restore the graph", trial)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: invariant after rollback: %v", trial, err)
		}
	}
}

// Property: a committed journaled run equals the same run without a
// journal (the journal must be observation-free).
func TestJournalCommitTransparent(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		seed := int64(trial*13 + 1)

		runOnce := func(journaled bool) string {
			rng := rand.New(rand.NewSource(seed))
			g := New()
			var j *Journal
			if journaled {
				j = g.BeginJournal()
			}
			for i := 0; i < 40; i++ {
				randomMutation(rng, g)
			}
			if journaled {
				j.Commit()
			}
			return Fingerprint(g)
		}

		if runOnce(true) != runOnce(false) {
			t.Fatalf("trial %d: journaled and journal-free runs differ", trial)
		}
	}
}

// TestCheckDanglingMatchesValidate is the equivalence property of the
// journal-scoped invariant: starting from a valid graph, random
// sequences of creations, checked, unchecked and detaching deletions,
// journal marks and RollbackTo must leave CheckDangling(mark) equal to
// the whole-graph Validate, error text for error text, at every step. A
// mark is only ever taken where Validate passes, as the engine only
// moves on from a statement boundary whose check passed.
func TestCheckDanglingMatchesValidate(t *testing.T) {
	violations := 0
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		g := New()
		for i := 0; i < 8+rng.Intn(8); i++ {
			randomMutation(rng, g)
		}
		pickNode := func() (NodeID, bool) {
			ids := g.NodeIDs()
			if len(ids) == 0 {
				return 0, false
			}
			return ids[rng.Intn(len(ids))], true
		}
		j := g.BeginJournal()
		mark := 0
		for step := 0; step < 80; step++ {
			switch rng.Intn(8) {
			case 0, 1:
				if id, ok := pickNode(); ok {
					g.DeleteNodeUnchecked(id)
				}
			case 2:
				if id, ok := pickNode(); ok {
					_ = g.DeleteNode(id) // fails while relationships are attached
				}
			case 3:
				// A statement boundary: keep the statement if it left no
				// dangling relationship, else roll it back.
				if g.Validate() == nil {
					mark = j.Mark()
				} else {
					j.RollbackTo(mark)
				}
			case 4:
				j.RollbackTo(mark)
			default:
				randomMutation(rng, g)
			}
			got, want := errText(j.CheckDangling(mark)), errText(g.Validate())
			if got != want {
				t.Fatalf("trial %d step %d: CheckDangling(%d) = %q, Validate = %q", trial, step, mark, got, want)
			}
			if want != "" {
				violations++
			}
		}
		j.Commit()
	}
	if violations < 100 {
		t.Fatalf("only %d steps left a dangling relationship; the property is barely exercised", violations)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
