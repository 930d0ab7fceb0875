package probe

// m is declared on a package type from a test file: valid Go that crashed
// go/types when test files were type-checked into the loaded package.
func (T) m() {}
