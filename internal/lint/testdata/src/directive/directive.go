// Package directive holds malformed //lint: comments; the loader must
// report each one instead of silently dropping the contract.
package directive

//lint:frobnicate
func unknownVerb() {}

//lint:hotpath extra args here
func hotpathWithArgs() {}

//lint:allow
func allowWithoutNames() {}

//lint:hotsafe
func hotsafeWithoutReason() {}

//lint:nocx
func nocxWithoutReason() {}

//lint:allow gofrob
func allowUnknownAnalyzer() {}

func ignoreMissingReason() {
	//lint:ignore hotalloc
	_ = make([]float64, 1)
}

func ignoreUnknownAnalyzer() {
	//lint:ignore gofrob not a real analyzer, so this suppresses nothing
	_ = make([]float64, 1)
}
