//go:build faultinject

package fault

// Active reports whether the in-code Point hooks are compiled in.
const Active = true

// Point is the hook embedded in hot execution paths, such as the table
// scan's block loop. Under the faultinject build tag it consults the
// registry; in release builds it compiles to nothing.
func Point(name string) error { return Hit(name) }
