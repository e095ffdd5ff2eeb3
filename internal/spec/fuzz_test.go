package spec

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// anchored matches the "file:line: " prefix every spec error carries.
var anchored = regexp.MustCompile(`^f\.yaml:[1-9][0-9]*: `)

// FuzzSpecParse drives Parse and Compile from the example specs and the
// negative cases, which include the hostile numeric inputs: a rate whose
// slot tick rounds to 0 ps (1e300mpps), drift_ppm: NaN, offset: 1e7s
// and a sub-picosecond runtime. Neither may panic on any input, and
// every error must be anchored to a line of the file.
func FuzzSpecParse(f *testing.F) {
	files, err := filepath.Glob("../../examples/specs/*")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example specs to seed from (%v)", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for _, tc := range negativeCases {
		f.Add([]byte(tc.src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		d, err := Parse(src, "f.yaml")
		if err == nil {
			_, _, err = d.Compile()
		}
		if err != nil && !anchored.MatchString(err.Error()) {
			t.Fatalf("error is not anchored as f.yaml:line: %v", err)
		}
	})
}
