// Fixture: the production caller of deadexport/internal/lib and
// deadexport/pub.
package app

import (
	"fmt"

	"deadexport/internal/lib"
	"deadexport/pub"
)

// Main is exported, but no package imports app: like a command, it is a
// root of the program, out of scope.
func Main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(lib.Live(), s, pub.Used())
}
