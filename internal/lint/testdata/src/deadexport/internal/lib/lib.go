// Fixture: deadexport — an internal package with one dead and one live
// export, next to the exempt shapes.
package lib

// Live is called from deadexport/app.
func Live() int { return 1 }

// Dead has no caller outside its own body: the recursion does not count.
func Dead(n int) int {
	if n == 0 {
		return 0
	}
	return Dead(n - 1)
}

// Shape is an interface declared in the module.
type Shape interface{ Area() float64 }

// Square implements Shape; nothing calls Area on it directly.
type Square struct{ Side float64 }

// Area is exempt: it implements Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// String is exempt: it implements fmt.Stringer, declared in a package the
// module imports.
func (s Square) String() string { return "square" }
