// Package parallel provides the small worker-pool primitives that drive the
// reproduction's hot paths — workload labeling (internal/exec), gradient-
// boosting split search (internal/ml/gb), and the harness's mini-batch
// neural training (internal/bench/nn) — across GOMAXPROCS cores.
//
// The package enforces one discipline everywhere it is used: parallel
// execution must be *observationally deterministic*. Work items write only
// to their own output slots (distinct slice indices), and any cross-item
// reduction happens after the pool drains, in a fixed order independent of
// worker count and scheduling. Under that discipline every caller produces
// bit-identical results for any worker count, including 1 — which is also
// what keeps `go test -race` clean.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values < 1 mean "one worker
// per logical CPU" (GOMAXPROCS at call time).
func Workers(requested int) int {
	if requested < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Do runs fn(i) for every i in [0, n) using at most workers goroutines.
// Indices are handed out dynamically from an atomic counter, so uneven item
// costs balance automatically. With workers <= 1 (or n <= 1) fn runs inline
// on the calling goroutine with zero overhead.
//
// fn must confine its side effects to per-index state (e.g. out[i]); Do
// itself imposes no ordering between distinct indices.
func Do(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
}

// DoChunks splits [0, n) into at most workers contiguous chunks of
// near-equal size and runs fn(lo, hi) for each, in parallel. Use it when
// per-item work is cheap enough that per-index dispatch would dominate, or
// when a worker wants to reuse scratch buffers across the items of its
// chunk. With workers <= 1 the single chunk [0, n) runs inline.
func DoChunks(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
