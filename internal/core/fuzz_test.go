package core

import "testing"

// FuzzParseChunks parses arbitrary strings as a chunk spec and checks three
// properties: ParseChunks never panics; a spec it accepts covers a positive
// number of nodes and passes Validate; and its String parses back to the
// same String. Seeded with the notation's shapes and with sums that overflow
// an int, which must be refused.
func FuzzParseChunks(f *testing.F) {
	for _, s := range []string{"6", "4+4", "(2+2)+(2+2)", "((2+2))",
		"9223372036854775807+1", "4611686018427387904+4611686018427387904"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseChunks(in)
		if err != nil {
			return
		}
		if spec.Leaves <= 0 {
			t.Fatalf("ParseChunks(%q) accepted a spec of %d leaves", in, spec.Leaves)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseChunks(%q) accepted a spec that fails Validate: %v", in, err)
		}
		back, err := ParseChunks(spec.String())
		if err != nil {
			t.Fatalf("ParseChunks(%q) = %q, which does not parse back: %v", in, spec, err)
		}
		if back.String() != spec.String() {
			t.Fatalf("ParseChunks(%q) = %q, which parses back as %q", in, spec, back)
		}
	})
}
