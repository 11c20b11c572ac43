// Fixture: the production caller of deadexport/internal/lib.
package app

import (
	"fmt"

	"deadexport/internal/lib"
)

// Main is exported but not internal, so it is out of scope.
func Main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(lib.Live(), s)
}
