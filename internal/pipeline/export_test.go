package pipeline

// Test helpers for the external test package: events_test.go imports
// internal/trace, which imports this package, so it cannot live inside
// it.
var (
	TestingConfig = testConfig
	LoopProgram   = loopProgram
)
