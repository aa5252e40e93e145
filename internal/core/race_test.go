//go:build race

package core

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops pooled values at random.
const raceEnabled = true
