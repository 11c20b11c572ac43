// Fixture: a test-support package. No non-test file imports it, so its
// exports are exempt.
package libtest

// Helper would be dead anywhere else.
func Helper() int { return 2 }
