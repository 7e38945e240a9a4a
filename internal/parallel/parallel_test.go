package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Errorf("Workers(3) = %d", Workers(3))
	}
	want := runtime.GOMAXPROCS(0)
	if Workers(0) != want || Workers(-1) != want {
		t.Errorf("Workers(0)/Workers(-1) = %d/%d, want %d", Workers(0), Workers(-1), want)
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := Map(context.Background(), workers, 100, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapZeroItems(t *testing.T) {
	got, err := Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) {
		t.Error("fn called for zero items")
		return 0, nil
	})
	if err != nil || got != nil {
		t.Errorf("Map over 0 items = %v, %v", got, err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), workers, 64, func(_ context.Context, i int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent items, worker bound is %d", p, workers)
	}
}

func TestMapErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	_, err := Map(context.Background(), 2, 1000, func(_ context.Context, i int) (int, error) {
		calls.Add(1)
		if i == 7 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Cancellation must have skipped most of the remaining work.
	if n := calls.Load(); n == 1000 {
		t.Errorf("all %d items ran despite early failure", n)
	}
}

// TestMapLowestIndexError pins the error choice. With one worker items
// run strictly in index order, so the first failing item's error is
// returned deterministically; with several workers the reported error
// must still be one of the genuine item failures, never a bare
// cancellation.
func TestMapLowestIndexError(t *testing.T) {
	errFor := func(i int) error { return fmt.Errorf("item %d failed", i) }
	_, err := Map(context.Background(), 1, 8, func(_ context.Context, i int) (int, error) {
		if i%2 == 1 {
			return 0, errFor(i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "item 1 failed" {
		t.Fatalf("serial err = %v, want item 1 failed", err)
	}
	for trial := 0; trial < 20; trial++ {
		_, err := Map(context.Background(), 4, 8, func(_ context.Context, i int) (int, error) {
			if i%2 == 1 {
				return 0, errFor(i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("trial %d: nil error", trial)
		}
		var n int
		if _, scanErr := fmt.Sscanf(err.Error(), "item %d failed", &n); scanErr != nil || n%2 != 1 {
			t.Fatalf("trial %d: err = %v, want a genuine odd-item failure", trial, err)
		}
	}
}

// TestMapFailureNotMaskedByCancellation: a slow low-index item that
// returns ctx.Err() after a high-index item fails must not hide the real
// error behind context.Canceled.
func TestMapSlowItemDoesNotMaskRealError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Map(context.Background(), 2, 2, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			<-ctx.Done() // blocks until item 1 fails
			return 0, ctx.Err()
		}
		time.Sleep(5 * time.Millisecond)
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	done := make(chan struct{})
	var ran atomic.Int64
	go func() {
		defer close(done)
		_, err := Map(ctx, 2, 1000, func(ctx context.Context, i int) (int, error) {
			if ran.Add(1) == 1 {
				close(started)
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(2 * time.Millisecond):
				return i, nil
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	<-started
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Map did not return after parent cancellation")
	}
	if n := ran.Load(); n == 1000 {
		t.Error("cancellation did not skip remaining work")
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	if err := ForEach(context.Background(), 4, 10, func(_ context.Context, i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 45 {
		t.Errorf("sum = %d, want 45", sum.Load())
	}
	boom := errors.New("boom")
	if err := ForEach(context.Background(), 4, 10, func(_ context.Context, i int) error {
		if i == 3 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Errorf("ForEach err = %v", err)
	}
}

// TestMapEachIndexOnce: no index may be dispatched twice.
func TestMapEachIndexOnce(t *testing.T) {
	counts := make([]atomic.Int64, 200)
	_, err := Map(context.Background(), 8, len(counts), func(_ context.Context, i int) (int, error) {
		counts[i].Add(1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
}

func TestChunkRange(t *testing.T) {
	cases := []struct{ n, chunks, w, lo, hi int }{
		{10, 3, 0, 0, 4}, {10, 3, 1, 4, 8}, {10, 3, 2, 8, 10},
		{4, 4, 3, 3, 4}, {3, 4, 3, 3, 3}, {1, 1, 0, 0, 1},
	}
	for _, c := range cases {
		lo, hi := ChunkRange(c.n, c.chunks, c.w)
		if lo != c.lo || hi != c.hi {
			t.Errorf("ChunkRange(%d,%d,%d) = [%d,%d), want [%d,%d)", c.n, c.chunks, c.w, lo, hi, c.lo, c.hi)
		}
	}
	// Every item covered exactly once for a spread of shapes.
	for n := 1; n <= 17; n++ {
		for chunks := 1; chunks <= 6; chunks++ {
			covered := make([]int, n)
			for w := 0; w < chunks; w++ {
				lo, hi := ChunkRange(n, chunks, w)
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d chunks=%d: item %d covered %d times", n, chunks, i, c)
				}
			}
		}
	}
}

// TestFoldChunksAndOrder: every chunk is computed once with the right
// bounds, and the results are folded in chunk order at every width.
func TestFoldChunksAndOrder(t *testing.T) {
	type span struct{ lo, hi int }
	for _, n := range []int{0, 1, 9, 10, 11, 100} {
		for _, width := range []int{1, 2, 3, 8} {
			got := Fold(n, 10, width, n, func(n, lo, hi int) []span {
				if lo%10 != 0 || hi != min(lo+10, n) {
					t.Errorf("n=%d: chunk [%d, %d)", n, lo, hi)
				}
				return []span{{lo, hi}}
			}, func(_ int, acc, r []span) []span { return append(acc, r...) })
			want := []span{{0, min(10, n)}}
			for lo := 10; lo < n; lo += 10 {
				want = append(want, span{lo, min(lo+10, n)})
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("n=%d width=%d: folded %v, want %v", n, width, got, want)
			}
		}
	}
}

// TestFoldNilMerge: a nil merge still computes every chunk.
func TestFoldNilMerge(t *testing.T) {
	for _, width := range []int{1, 4} {
		var calls atomic.Int64
		Fold(95, 10, width, &calls, func(calls *atomic.Int64, _, _ int) struct{} {
			calls.Add(1)
			return struct{}{}
		}, nil)
		if calls.Load() != 10 {
			t.Errorf("width=%d: %d chunks computed, want 10", width, calls.Load())
		}
	}
}

// TestFoldOneChunkAllocs: one chunk runs inline and allocates nothing.
func TestFoldOneChunkAllocs(t *testing.T) {
	xs := make([]int, 100)
	sum := func(xs []int, lo, hi int) int { return hi - lo + xs[lo] }
	if n := testing.AllocsPerRun(50, func() {
		if Fold(len(xs), Grain, 0, xs, sum, nil) != len(xs) {
			t.Fatal("wrong sum")
		}
	}); n != 0 {
		t.Errorf("one-chunk Fold made %v allocations, want 0", n)
	}
}
