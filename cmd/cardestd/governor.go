package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// The serving-P governor: while the daemon serves, it runs on as few Ps
// (runtime.GOMAXPROCS) as its load needs. A request that finds an idle P
// beside it hands work to that P's thread and wakes it, and a sequential
// client pays those wake-ups on every request; on one P the handler runs
// where the connection's read woke it (DESIGN §6). Boot, labeling and
// training run before the governor starts and keep every P. This file is
// the one owner of the P count: make ci fails on a runtime.GOMAXPROCS call
// with an argument in any other program file.

// governorPeriod is the window the governor reads the process's load over.
const governorPeriod = 100 * time.Millisecond

// load is what the process asked of its Ps over one window: cpu is the CPU
// time it spent over wall time, in CPUs; waiting is the time its goroutines
// spent runnable, waiting for a P, over wall time, in goroutines.
type load struct{ cpu, waiting float64 }

// The governor's thresholds, per P serving. The Ps are short when the load
// reaches full on either reading: they are busy, or work waits for them
// while they read under busy, because the box's other processes hold its
// cores. One fewer P is enough when the load would stay within fits on
// both. fits lies below full on both readings, so no steady load steps the
// governor both ways.
var (
	full = load{cpu: 0.95, waiting: 0.35}
	fits = load{cpu: 0.90, waiting: 0.20}
)

// nextProcs is the governor's step: procs Ps serve now, ceiling bounds them,
// and used is the last window's load. Ps that are short jump to the ceiling
// at once; the count comes down one P a window, never below 1.
func nextProcs(procs, ceiling int, used load) int {
	p := float64(procs)
	switch {
	case procs < ceiling && (used.cpu >= full.cpu*p || used.waiting >= full.waiting*p):
		return ceiling
	case procs > 1 && used.cpu <= fits.cpu*(p-1) && used.waiting <= fits.waiting*(p-1):
		return procs - 1
	}
	return procs
}

// govern starts the governor on its own goroutine. Its ceiling is the Ps
// the process has when govern is called; it starts there and steps between
// 1 and it, printing one line per step to out. It stops when ctx is done or
// stop is called; stop waits for it to return and restores the ceiling.
func govern(ctx context.Context, out io.Writer) (stop func()) {
	ceiling := runtime.GOMAXPROCS(0)
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		procs := ceiling
		tick := time.NewTicker(governorPeriod)
		defer tick.Stop()
		var m meter
		last := m.read()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			now := m.read()
			used := now.since(last)
			last = now
			if next := nextProcs(procs, ceiling, used); next != procs {
				runtime.GOMAXPROCS(next)
				fmt.Fprintf(out, "governor: %d -> %d Ps (the last window used %.2f CPUs; %.2f goroutines waited for a P)\n", procs, next, used.cpu, used.waiting)
				procs = next
			}
		}
	}()
	return func() {
		cancel()
		<-done
		runtime.GOMAXPROCS(ceiling)
	}
}

// meter reads the process's running totals; its sample is reused.
type meter struct{ sample [1]metrics.Sample }

// reading is one instant's totals: the CPU time the process has spent, user
// and system, and the seconds its goroutines have waited runnable for a P.
type reading struct {
	at          time.Time
	cpu, waited float64
}

func (m *meter) read() reading {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF with a valid pointer cannot fail
	m.sample[0].Name = "/sched/latencies:seconds"
	metrics.Read(m.sample[:])
	return reading{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		waited: histogramSum(m.sample[0].Value.Float64Histogram()),
	}
}

// since is the load between r0 and r.
func (r reading) since(r0 reading) load {
	wall := r.at.Sub(r0.at).Seconds()
	return load{cpu: (r.cpu - r0.cpu) / wall, waiting: (r.waited - r0.waited) / wall}
}

// histogramSum estimates the sum of a runtime/metrics histogram's samples,
// each at its bucket's midpoint (an unbounded bucket at its finite edge).
func histogramSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		sum += float64(n) * (lo + hi) / 2
	}
	return sum
}
