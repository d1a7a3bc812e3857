package attack

import "testing"

// FuzzBuildAttack drives the registry with arbitrary pattern names and
// arguments, as spec and CLI input reaches it. Build must return a
// generator or an error, never panic, and every accepted spelling must
// round-trip through Canonical: the canonical name is a fixed point and
// builds a generator of the same name, so "multi:08" and "multi:8" are
// one pattern.
func FuzzBuildAttack(f *testing.F) {
	for _, info := range Patterns() {
		base, _ := split(info.Name)
		f.Add(base, "")
	}
	f.Add("multi", "8")
	f.Add("multi", "08")
	f.Add("multi", "+8")
	f.Add("multi", "0")
	f.Add("multi", "-1")
	f.Add("multi", "32767")
	f.Add("multi", "9223372036854775807")
	f.Add("decoy", "4")
	f.Add("decoy", "1000000000")
	f.Add("single", "1")
	f.Add("multi:8", "9")
	f.Add("", "")
	m := mapper()
	f.Fuzz(func(t *testing.T, base, arg string) {
		name := base
		if arg != "" {
			name += ":" + arg
		}
		gen, err := Build(name, Params{Mapper: m})
		if err != nil {
			return // rejected input: any error is fine, panics are not
		}
		gen.Next()
		canon, err := Canonical(name)
		if err != nil {
			t.Fatalf("Build(%q) succeeded but Canonical failed: %v", name, err)
		}
		if again, err := Canonical(canon); err != nil || again != canon {
			t.Fatalf("Canonical(%q) = %q, %v; want the fixed point %q", canon, again, err, canon)
		}
		built, err := Build(canon, Params{Mapper: m})
		if err != nil {
			t.Fatalf("Build(%q) succeeded but its canonical %q failed: %v", name, canon, err)
		}
		if built.Name() != gen.Name() {
			t.Fatalf("Build(%q) = %q but its canonical %q builds %q", name, gen.Name(), canon, built.Name())
		}
	})
}
