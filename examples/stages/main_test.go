package main

import "testing"

// TestMainRuns runs the example end to end. Its errors go through
// log.Fatal, whose non-zero exit fails the test binary.
func TestMainRuns(t *testing.T) {
	main()
}
