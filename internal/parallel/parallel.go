// Package parallel provides the bounded worker pool that fans the
// evaluation stack's embarrassingly parallel sweeps — per-layer
// accelerator simulations, per-model table rows, per-delta compression
// points — across CPU cores, and Fold, which splits one large slice into
// chunks for the data-parallel kernels.
//
// Determinism is the design constraint: work items are identified by
// index, results are collected into an index-ordered slice, and on
// failure the error of the lowest-indexed failing item is returned. A
// run with N workers therefore produces output byte-identical to the
// serial run, regardless of scheduling. Fold folds its chunk results in
// chunk order for the same reason.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the error a panicking work item is converted into: one
// bad item fails its sweep cleanly instead of killing the process. The
// deterministic error-selection rule applies to it like any other item
// error, so the reported panic is stable across worker counts.
type PanicError struct {
	Index int    // work-item index that panicked
	Value any    // the recovered panic value
	Stack string // stack trace captured at recovery
}

// Error implements the error interface. The stack is carried for
// debugging but kept out of the message so the error string is
// deterministic.
func (p *PanicError) Error() string {
	return fmt.Sprintf("parallel: item %d panicked: %v", p.Index, p.Value)
}

// Workers resolves a worker-count request: n >= 1 is used as given; zero
// or negative means one worker per available CPU (runtime.GOMAXPROCS).
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ChunkRange returns the half-open range [lo, hi) of chunk w when n
// items are split into `chunks` contiguous chunks of near-equal size.
// Trailing chunks may be empty.
func ChunkRange(n, chunks, w int) (lo, hi int) {
	size := (n + chunks - 1) / chunks
	lo = w * size
	hi = min(lo+size, n)
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Map runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines and returns the results ordered by index.
//
// The context passed to fn is canceled as soon as any item fails, so
// long-running items can abort early; items not yet started are skipped.
// When one or more items fail, Map returns a nil result slice and the
// error of the lowest-indexed item whose failure was recorded, preferring
// real errors over the cancellations it induced in items interrupted
// mid-flight. With workers == 1 items run strictly in index order, so the
// reported error is fully deterministic. If the parent context is
// canceled before all items complete, Map reports the context error.
//
// A panic inside fn is recovered and converted into a *PanicError for
// that index, failing the run like any other item error instead of
// crashing the process.
//
// fn must be safe for concurrent invocation with distinct indices;
// Map never invokes it twice for the same index.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				r, err := protect(ctx, i, fn)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					cancel()
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()

	if failed.Load() {
		// Return the lowest-indexed real failure; cancellation errors
		// recorded by items interrupted mid-flight are a consequence of
		// that failure, not the cause.
		var first error
		for _, err := range errs {
			if err == nil {
				continue
			}
			if first == nil {
				first = err
			}
			if !errors.Is(err, context.Canceled) {
				return nil, err
			}
		}
		return nil, first
	}
	// A canceled parent context with no item error still aborts the run.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// protect invokes fn(ctx, i), converting a panic into a *PanicError.
func protect[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (r T, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: string(debug.Stack())}
		}
	}()
	return fn(ctx, i)
}

// ForEach is Map without per-item results: it runs fn(ctx, i) for every
// i in [0, n) on at most workers goroutines and returns the error of the
// lowest-indexed failing item, if any.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	_, err := Map(ctx, workers, n, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}

// Grain is the chunk size, in elements, above which the data-parallel
// kernels over one large slice — the Eq. 1 segment scan and line fits of
// internal/core, stats.MinMax and tensor's Float64s — split their input
// across cores. It is a multiple of 64, so a chunk covers whole words of
// a bitmap with one bit per element. Every LeNet-5 layer is below it;
// VGG-16's 102.8M-weight dense_1 is 99 chunks. Chunks of 2^18 to 2^21
// weights compress a 2^25-weight stream equally fast on two cores.
const Grain = 1 << 20

// Fold cuts [0, n) into chunks [lo, hi) that start at multiples of grain,
// computes fn(arg, lo, hi) for every chunk on up to Workers(width)
// goroutines, the caller's included, and folds the results in chunk order:
// merge(arg, ...merge(arg, r0, r1)..., rLast). The result is therefore the
// same at every width. A nil merge discards the results.
//
// With one chunk (n <= grain) or one worker every chunk runs on the
// caller's goroutine, folded as it completes; with one chunk Fold returns
// fn(arg, 0, n) and allocates nothing. Pass the chunks' shared state in
// arg, by value, and functions that capture nothing, so that no closure is
// allocated either. fn must be safe to call concurrently on distinct
// chunks; merge runs on the caller's goroutine.
func Fold[A, R any](n, grain, width int, arg A, fn func(arg A, lo, hi int) R, merge func(arg A, acc, r R) R) R {
	chunks := max(1, (n+grain-1)/grain)
	width = min(Workers(width), chunks)
	if width == 1 {
		acc := fn(arg, 0, min(grain, n))
		for lo := grain; lo < n; lo += grain {
			r := fn(arg, lo, min(lo+grain, n))
			if merge != nil {
				acc = merge(arg, acc, r)
			}
		}
		return acc
	}
	f := &fold[A, R]{arg: arg, fn: fn, n: n, grain: grain, rs: make([]R, chunks)}
	f.wg.Add(width - 1)
	for range width - 1 {
		go f.help()
	}
	f.run()
	f.wg.Wait()
	if merge != nil {
		for _, r := range f.rs[1:] {
			f.rs[0] = merge(arg, f.rs[0], r)
		}
	}
	return f.rs[0]
}

// fold is the state a parallel Fold shares with its helper goroutines.
type fold[A, R any] struct {
	arg      A
	fn       func(arg A, lo, hi int) R
	n, grain int
	rs       []R // rs[c] is the result of chunk c
	next     atomic.Int64
	wg       sync.WaitGroup
}

// run computes chunks until none is left.
func (f *fold[A, R]) run() {
	for c := int(f.next.Add(1)) - 1; c < len(f.rs); c = int(f.next.Add(1)) - 1 {
		f.rs[c] = f.fn(f.arg, c*f.grain, min(c*f.grain+f.grain, f.n))
	}
}

// help is run on a helper goroutine.
func (f *fold[A, R]) help() {
	defer f.wg.Done()
	f.run()
}
