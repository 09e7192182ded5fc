//go:build !race

package execution

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
