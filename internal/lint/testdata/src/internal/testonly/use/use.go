// Package use is the fixture's production caller. No loaded package imports
// it, so its own exports are skipped like a test harness's.
package use

import "fixture/internal/testonly"

var f = testonly.Referenced

// Run has no caller, but its package is imported by nothing: not reported.
func Run() int {
	f()
	return testonly.Called()
}
