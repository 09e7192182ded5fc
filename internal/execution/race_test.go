//go:build race

package execution

// raceEnabled reports a -race build, where sync.Pool.Put drops a random
// share of what it is handed, so allocation counts that go through a
// pool are not deterministic.
const raceEnabled = true
