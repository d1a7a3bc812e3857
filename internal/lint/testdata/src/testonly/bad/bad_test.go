package main

import "testing"

func TestHelper(t *testing.T) {
	if helper() != 1 || (&table{n: 2}).size() != 2 {
		t.Fatal("helper")
	}
}
