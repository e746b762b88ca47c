package plan

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/value"
)

// TestSpillBookkeepingConcurrent hammers the process-wide spill-file
// registry and a shared statement budget from many goroutines at once,
// each writing, compacting and discarding its own runs while all of
// them account against one budget — the registry is shared by every
// concurrent statement. Run under -race (the `make par` target does);
// the assertions here catch leaks, the race detector catches unsynced
// access.
func TestSpillBookkeepingConcurrent(t *testing.T) {
	const (
		workers = 8
		iters   = 12
		perRun  = 48
	)
	if live := SpillFilesLive(); live != 0 {
		t.Fatalf("pre-existing live spill files: %d", live)
	}
	b := newBudget(1 << 10)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fail := func(err error) {
				select {
				case errs <- err:
				default:
				}
			}
			for iter := 0; iter < iters; iter++ {
				// Build a sorted run, accounting each row like sortSpillRows
				// intake does.
				rows := make([]spillRow, 0, perRun)
				var held int64
				for i := 0; i < perRun; i++ {
					r := spillRow{
						seq:  int64(i),
						key:  fmt.Sprintf("w%d-%d", w, i),
						keys: []value.Value{value.Int(int64(i % 7))},
						vals: []value.Value{value.Int(int64(i)), value.String("padding-padding")},
					}
					sz := spillRowBytes(r)
					b.grow(sz)
					held += sz
					rows = append(rows, r)
				}
				_ = b.over()
				// Spill the run, release the memory accounting, read it
				// back, and let stream-close discard the temp file.
				sf, err := writeRun(rows)
				if err != nil {
					b.shrink(held)
					fail(err)
					return
				}
				b.shrink(held)
				// Every other iteration also exercises compactRuns, which
				// merges sibling spill files into a fresh one.
				if iter%2 == 1 {
					sf2, err := writeRun(rows)
					if err != nil {
						sf.discard()
						fail(err)
						return
					}
					merged, _, err := compactRuns([]*spillFile{sf, sf2}, func(a, c spillRow) bool { return a.seq < c.seq }, math.MaxInt)
					if err != nil {
						fail(err)
						return
					}
					sf = merged
				}
				st, err := sf.stream()
				if err != nil {
					fail(err)
					return
				}
				n := 0
				for {
					_, ok, err := st.next()
					if err != nil {
						st.close()
						fail(err)
						return
					}
					if !ok {
						break
					}
					n++
				}
				st.close()
				want := perRun
				if iter%2 == 1 {
					want = 2 * perRun
				}
				if n != want {
					fail(fmt.Errorf("worker %d iter %d: replayed %d rows, want %d", w, iter, n, want))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if live := SpillFilesLive(); live != 0 {
		t.Fatalf("%d spill files still live", live)
	}
	if got := b.used.Load(); got != 0 {
		t.Fatalf("budget residue after balanced grow/shrink: %d", got)
	}
}

// TestBudgetShrinkClampConcurrent drives unbalanced concurrent shrinks
// (more shrink than grow, as a goroutine releasing bytes another one
// accounted can transiently produce) and checks the CAS clamp keeps the
// counter at zero rather than letting it go — and stay — negative.
func TestBudgetShrinkClampConcurrent(t *testing.T) {
	b := newBudget(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.grow(64)
				b.shrink(64)
				b.shrink(8) // deliberate over-release
			}
		}()
	}
	wg.Wait()
	if got := b.used.Load(); got < 0 {
		t.Fatalf("budget stayed negative: %d", got)
	}
}
