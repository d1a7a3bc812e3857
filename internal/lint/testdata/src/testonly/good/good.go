// Package main reaches every function it declares through a root.
package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
)

// shape is called only through the interface.
type shape interface{ area() int }

type square struct{ side int }

// area is reached only through shape.area.
func (s square) area() int { return s.side * s.side }

// celsius satisfies fmt.Stringer; only fmt calls String.
type celsius float64

func (c celsius) String() string { return strconv.FormatFloat(float64(c), 'f', 1, 64) + "C" }

// failure satisfies error; nothing here calls Error directly.
type failure struct{}

func (failure) Error() string { return "failure" }

// handle is passed as a value to http.HandleFunc.
func handle(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusNoContent) }

var ints = []int{3, 1, 2}

// less is passed as a value to sort.Slice.
func less(i, j int) bool { return ints[i] < ints[j] }

// formula is kept for its test on purpose, so term is live too.
//
//mithril:allow testonly the paper's formula, checked by its test
func formula() int { return term() }

func term() int { return 2 }

// table entries are live when the table is.
var ops = map[string]func() int{"one": one}

func one() int { return 1 }

func init() { _ = ops["one"]() }

func main() {
	var s shape = square{side: 2}
	_ = s.area()
	http.HandleFunc("/", handle)
	sort.Slice(ints, less)
	fmt.Println(celsius(21), failure{})
}
