package simnet

import "sync"

// Scratch holds the reusable working memory of one simulation run: the
// calendar queue's bucket ring and overflow heap, the compiled per-spec
// routes, and the dependency bookkeeping. Reusing a Scratch across runs
// makes the
// steady-state event loop allocation-free; results are bit-identical
// with or without reuse.
//
// A Scratch may serve any number of sequential runs on any networks, but
// must never be shared by concurrent runs — each worker goroutine of a
// parallel sweep owns its own (see internal/harness/pool.go). The zero
// value is ready to use.
type Scratch struct {
	st runState
}

// NewScratch returns an empty scratch; capacity grows on first use and
// is retained for subsequent runs.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool backs Network.Run for callers that do not manage scratch
// explicitly; sync.Pool's per-P caching gives those callers per-worker
// reuse for free.
var scratchPool = sync.Pool{New: func() interface{} { return NewScratch() }}

// growInt32 returns a slice of length n, reusing s's backing array when
// it is large enough. Contents are unspecified.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growArcLists returns a slice of n route windows, reusing the outer
// backing array when large enough. Contents are unspecified; route
// compilation overwrites every entry.
func growArcLists(s [][]int32, n int) [][]int32 {
	if cap(s) < n {
		return make([][]int32, n)
	}
	return s[:n]
}

// growTimes is growInt32 for Time slices.
func growTimes(s []Time, n int) []Time {
	if cap(s) < n {
		return make([]Time, n)
	}
	return s[:n]
}

// growBools is growInt32 for bool slices.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// resetLists returns a slice of n empty sub-slices, retaining both the
// outer backing array and every sub-slice's capacity from prior runs —
// the slice-of-slices replacement for a freshly allocated map per run.
func resetLists(s [][]int32, n int) [][]int32 {
	if cap(s) < n {
		ns := make([][]int32, n)
		copy(ns, s[:cap(s)])
		s = ns
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}
