// engine.go is the parallel experiment execution engine.
//
// Every experiment in this package decomposes into independent jobs: one
// job builds a fresh system, runs one workload under one configuration and
// mechanism, and returns a self-contained result. Jobs share nothing —
// each owns its entire object graph (its own sim.Engine, memory model,
// counters, and RNGs seeded as a pure function of Options.Seed and the
// job's grid position) — so the pool may execute them in any order on any
// goroutine. Results are always reassembled in job-index order before a
// table row is rendered, which makes the rendered output bit-identical
// for any Jobs setting, including fully serial execution.
package exp

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// workers resolves the pool width: Jobs when positive, else every
// available CPU (runtime.GOMAXPROCS(0)). Jobs = 1 forces serial
// execution on the calling goroutine.
func (o Options) workers() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// ctx resolves the cancellation context: Options.Ctx when set, else a
// background context (never canceled — the pre-context behavior).
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// canceled is the panic payload runJobs uses to unwind an experiment's
// Run function when its context is canceled mid-grid. Experiments
// post-process complete result slices, so a partial grid cannot be
// allowed to reach their aggregation code; unwinding through Run and
// recovering in RunContext keeps every per-experiment Run untouched.
// The panic is raised only on the goroutine that called runJobs, never
// on a pool worker.
type canceled struct{ err error }

// jobSeed derives the RNG seed for job idx from a base seed using a
// splitmix64 round: deterministic in (base, idx), decorrelated across
// consecutive indices, and independent of scheduling. Jobs that need
// their own generator seed must derive it from this (or from an equally
// pure function of Options.Seed and their grid position) — never from
// shared RNG state, which would make output depend on execution order.
func jobSeed(base int64, idx int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(idx+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// runJobs executes fn(0), ..., fn(n-1) on a pool of o.workers()
// workers pulling job indices from a shared counter (sim.Fan), and
// returns the results in index order. fn must be safe to call
// concurrently with itself; in this package that holds because each job
// constructs everything it touches. Progress (when set) observes
// completions serialized under a lock, so callbacks never race even
// though jobs finish on different goroutines. A panicking job stops its
// worker; once the others drain the grid the panic reaches the caller as
// a *sim.FanPanic.
//
// Cancellation: when Options.Ctx is canceled, no further jobs are
// dispatched (in-flight jobs run to completion — one simulation is not
// interruptible) and runJobs unwinds the calling goroutine with a
// canceled panic that RunContext converts to the context's error. A
// context that is never canceled leaves the dispatch order, the job
// seeds and therefore the results exactly as before: determinism across
// -jobs settings is untouched.
func runJobs[T any](o Options, n int, fn func(idx int) T) []T {
	ctx := o.ctx()
	out := make([]T, n)
	w := o.workers()
	if w > n {
		w = n
	}
	var mu sync.Mutex
	done := 0
	report := func() {
		if o.Progress == nil {
			return
		}
		mu.Lock()
		done++
		o.Progress(done, n)
		mu.Unlock()
	}
	var next atomic.Int64
	sim.Fan(w, func(int) {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			out[i] = fn(i)
			report()
		}
	})
	if err := ctx.Err(); err != nil {
		panic(canceled{err})
	}
	return out
}
