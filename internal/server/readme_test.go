package server

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// readmeJobBody matches the JSON body of every `curl … /jobs -d '…'`
// example in the root README.
var readmeJobBody = regexp.MustCompile(`curl [^\n]*/jobs -d '([^']*)'`)

// TestReadmeJobExamplesNormalize keeps the README's xqd quickstart
// honest: every job body it shows must decode the way the HTTP handler
// decodes it (unknown fields rejected) and pass JobSpec.Normalize.
func TestReadmeJobExamplesNormalize(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	bodies := readmeJobBody.FindAllSubmatch(readme, -1)
	if len(bodies) < 3 {
		t.Fatalf("found %d job examples in README.md, want at least 3", len(bodies))
	}
	for _, m := range bodies {
		body := m[1]
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var spec JobSpec
		if err := dec.Decode(&spec); err != nil {
			t.Fatalf("README job %s does not decode: %v", body, err)
		}
		if _, err := spec.Normalize(); err != nil {
			t.Fatalf("README job %s is rejected: %v", body, err)
		}
	}
}
