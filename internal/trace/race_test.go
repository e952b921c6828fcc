//go:build race

package trace

// raceEnabled reports a race-detector build, under which sync.Pool
// drops items at random.
const raceEnabled = true
