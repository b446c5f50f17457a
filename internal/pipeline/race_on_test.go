//go:build race

package pipeline_test

// raceDetector reports whether the race detector is active. Its
// scheduling perturbs how many buffers are live at once, so the test that
// pins zero allocations against a fixed warm-up skips itself.
const raceDetector = true
