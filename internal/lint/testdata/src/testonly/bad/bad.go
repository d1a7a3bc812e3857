// Package main has production code that only its test reaches.
package main

func main() { run() }

func run() {}

// helper is called only from bad_test.go.
func helper() int { return leaf() } // want "helper is reached only from tests"

// leaf is reached only through helper.
func leaf() int { return 1 } // want "leaf is reached only from tests"

type table struct{ n int }

// size is a method only the test calls.
func (t *table) size() int { return t.n } // want "table.size is reached only from tests"
