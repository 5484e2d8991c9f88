// Package testonly exercises the test-only surface check: an exported
// package-level function under internal/ that no loaded (non-test) file
// references.
package testonly

// Called has a caller in the use package.
func Called() int { return helper() }

// Referenced is taken as a value, not called: any reference counts.
func Referenced() {}

// CalledInPackage has a caller in its own package.
func CalledInPackage() int { return 1 }

func helper() int { return CalledInPackage() } // ok: unexported

func Orphan() {} // want:testonly "Orphan has no non-test caller"

// T carries a method that nothing calls.
type T struct{}

// Method is not reported: methods are out of scope.
func (T) Method() {}
