// Fixture: deadexport/pub — an importable package outside internal/, held
// to the same rule as internal ones, for funcs and values alike.
package pub

// Used is called from deadexport/app.
func Used() int { return Limit }

// Unused has no caller.
func Unused() int { return 0 }

// Limit is live: Used reads it, and a use in the declaring package counts.
const Limit = 3

// Spare has no reader.
const Spare = 4

// Verbose has no reader.
var Verbose bool
