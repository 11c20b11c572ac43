// Fixture: the command that imports deadfield. No package imports app,
// so its own fields are out of scope, as a command's are.
package app

import (
	"fmt"

	"deadfield"
)

// state's unused field would be dead in an imported package.
type state struct{ unused int }

// Main drives every deadfield function.
func Main() {
	s := state{unused: 1}
	b, err := deadfield.Encode(deadfield.Wire{ID: 1}, deadfield.Report{Total: 2})
	fmt.Println(s, b, err, deadfield.Observe(&deadfield.Peak{}, &deadfield.Counter{}, 3),
		deadfield.Size(), deadfield.Name(deadfield.Derived{}))
}
