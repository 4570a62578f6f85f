//go:build race

package zpart

// raceEnabled gates allocation-regression tests: the race detector's
// instrumentation changes allocation behavior, so alloc counts are only
// pinned in the plain build.
const raceEnabled = true
