//go:build race

package core_test

// raceEnabled reports whether the race detector instruments this test
// binary. Wall-clock assertions are skipped under it: instrumentation
// inflates and reorders timings enough to invert real speedups.
const raceEnabled = true
