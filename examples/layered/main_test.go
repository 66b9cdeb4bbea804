package main

import "testing"

// TestMainRuns runs the example end to end. Its errors go through
// log.Fatal, whose non-zero exit fails the test binary. The n = 4096
// Select-and-Send run takes seconds, so -short skips it.
func TestMainRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 263,700-step Select-and-Send broadcast at n = 4096")
	}
	main()
}
