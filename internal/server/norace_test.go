//go:build !race

package server_test

// raceEnabled reports a -race build, in which sync.Pool drops what it holds
// at random.
const raceEnabled = false
