//go:build race

package main

// raceEnabled reports whether the tests run under the race detector,
// which slows instrumented code unevenly and so skews timing shares.
const raceEnabled = true
