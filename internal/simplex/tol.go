package simplex

// EqTol reports whether a and b are equal within tol. It is the tolerance
// helper fragvet's floatcmp analyzer recognizes: the exact == fast path is the
// one place in the module where exact floating-point equality is the point
// (it makes the helper safe for infinities of equal sign, where a-b is NaN).
func EqTol(a, b, tol float64) bool {
	if a == b { // fast path; handles equal infinities
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
