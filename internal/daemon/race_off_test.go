//go:build !race

package daemon

// raceEnabled reports whether the race detector instruments this test
// binary; the full-size footprint test then runs fewer seeds.
const raceEnabled = false
