//go:build !race

package fleet

// raceEnabled reports a build with the race detector.
const raceEnabled = false
