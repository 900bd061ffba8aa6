// Package a exercises hotpathalloc: every allocating construct inside
// a //isi:hotpath function, the one-level transitive callee scan, and
// the //isi:allow-alloc suppression grammar.
package a

import "fmt"

var sink []int

var iface any

// builtins flags the three allocating builtins.
//
//isi:hotpath
func builtins(n int) {
	s := make([]int, n)    // want `make allocates`
	p := new(int)          // want `new allocates`
	sink = append(sink, n) // want `append may grow its backing array`
	_, _ = s, p
}

// literals flags allocating composite literals but not plain struct
// values.
//
//isi:hotpath
func literals() {
	type pair struct{ a, b int }
	v := pair{1, 2}        // struct value: stack, fine
	s := []int{1, 2, 3}    // want `slice literal allocates`
	m := map[int]int{1: 2} // want `map literal allocates`
	p := &pair{3, 4}       // want `&composite literal escapes to the heap`
	_, _, _, _ = v, s, m, p
}

// closures flags func literals once, without descending.
//
//isi:hotpath
func closures() {
	f := func() { _ = make([]int, 1) } // want `closure allocates`
	f()
}

// boxing flags conversions and arguments that put concrete values into
// interfaces.
//
//isi:hotpath
func boxing(n int) {
	iface = any(n)        // want `conversion boxes int into interface`
	takesAny(n)           // want `argument boxes int into interface`
	takesError(nil)       // nil never boxes
	variadic(1, 2)        // want `argument boxes int into interface` `argument boxes int into interface`
	variadic(prebuilt...) // forwarding a slice: no boxing here
}

// stepper is a type parameter constrained to *F: converting to it (the
// generic scheduler's method call) is a pointer conversion, not a box.
//
//isi:hotpath
func stepper[F any, P interface {
	*F
	step()
}](f *F) {
	P(f).step()
}

func takesAny(v any)       { _ = v }
func takesError(err error) { _ = err }
func variadic(vs ...any)   { _ = vs }

var prebuilt = []any{1, 2}

// formatting flags fmt and run-time string concatenation.
//
//isi:hotpath
func formatting(name string) string {
	s := fmt.Sprintf("hello %s", name) // want `fmt.Sprintf allocates`
	t := "a" + name                    // want `non-constant string concatenation allocates`
	const u = "a" + "b"                // constant folding: fine
	_ = u
	return s + t // want `non-constant string concatenation allocates`
}

// transitive: callees one level deep are scanned and reported at the
// call site.
//
//isi:hotpath
func transitive() {
	helperAllocs() // want `calls helperAllocs which is not //isi:hotpath and may allocate: make allocates`
	helperClean()
	helperAllowed()
	hotCallee()
}

func helperAllocs() { _ = make([]int, 4) }

func helperClean() { sinkInt = 7 }

var sinkInt int

// helperAllowed's own annotation is honored from every caller.
func helperAllowed() {
	_ = make([]int, 8) //isi:allow-alloc(cold-start scratch growth)
}

// hotCallee is checked on its own, not re-reported at call sites.
//
//isi:hotpath
func hotCallee() { sinkInt = 9 }

// suppressed shows both allow-alloc placements: same line and the line
// above.
//
//isi:hotpath
func suppressed(n int) {
	s := make([]int, n) //isi:allow-alloc(resize is cap-guarded by caller)
	//isi:allow-alloc(cold path grows scratch once)
	sink = append(sink, n)
	_ = s
}

// coldPath is unannotated: it may allocate freely.
func coldPath(n int) []int {
	return make([]int, n)
}
