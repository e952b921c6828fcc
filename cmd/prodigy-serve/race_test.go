//go:build race

package main

// raceAllocSlack widens allocation ceilings under the race detector,
// which drops sync.Pool items at random, so pooled buffers are
// sometimes allocated afresh.
const raceAllocSlack = 8
