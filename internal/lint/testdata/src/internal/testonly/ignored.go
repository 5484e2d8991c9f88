package testonly

// Fixture has no non-test caller either, but carries a reason to stay.
//
//lint:ignore testonly shared by the tests of several packages
func Fixture() {}
