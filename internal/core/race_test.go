//go:build race

package core_test

// raceEnabled reports a -race build, whose sync.Pool drops Puts at
// random.
const raceEnabled = true
