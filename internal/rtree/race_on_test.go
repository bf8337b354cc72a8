//go:build race

package rtree_test

// raceEnabled reports whether the race detector instruments this build.
// Its sync.Pool drops recycled pages at random, so allocation counts of
// the file miss only hold without it.
const raceEnabled = true
