package hot

import "slices"

// Flip calls a generic stdlib function: no finding. Its instantiated
// parameter is a []int32, not the interface-typed constraint.
//
//xqlint:noalloc generic-call fixture
func Flip(s []int32) {
	slices.Reverse(s)
}

// Tag passes int32 values to a generic helper: the type-parameter
// argument is not boxed, the any argument is (one finding).
//
//xqlint:noalloc generic boxing fixture
func Tag(s []int32) int32 {
	return keep(s[0], s[1])
}

func keep[T any](x T, label any) T {
	_ = label
	return x
}
