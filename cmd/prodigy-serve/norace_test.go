//go:build !race

package main

// raceAllocSlack is 0 without the race detector: see race_test.go.
const raceAllocSlack = 0
