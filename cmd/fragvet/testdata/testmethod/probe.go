// Package probe declares a type whose methods include one written in a
// _test.go file.
package probe

type T struct{}
