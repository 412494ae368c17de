//go:build !race

// The race detector adds nothing to checking a deterministic CSV and
// stretches the four exhibits from seconds to minutes, so this test
// runs in the non-race passes only (go test ./..., make exhibits).

package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// goldenScale is the scale the pinned exhibits are recorded at.
const goldenScale = 0.002

// TestExhibitGoldens pins the paper's quality exhibits — Table I and
// Figs. 5, 6 and 9 — byte for byte: each runs through the same runner
// jem-bench uses, at scale 0.002 with jem-bench's default options, and
// its CSV must equal testdata/exhibits/<name>.csv. A change of hash
// family, tie rule, minimizer selection or genome model that moves any
// figure fails here. Re-record with `make exhibits-update` and put the
// before/after table in the change's CHANGES.md line.
func TestExhibitGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset synthesis is slow")
	}
	for _, tc := range []struct{ name, title string }{
		{"table1", "Table I"},
		{"fig5", "Fig. 5"},
		{"fig6", "number of trials"},
		{"fig9", "percent identity"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, ok := ExhibitByName(tc.name)
			if !ok {
				t.Fatalf("no exhibit %q", tc.name)
			}
			var text, csv bytes.Buffer
			err := e.Run(&text, goldenScale, jem.DefaultOptions(), func(name string, write func(io.Writer) error) error {
				if name != tc.name+".csv" {
					t.Errorf("exhibit %s wrote %s", tc.name, name)
				}
				return write(&csv)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(text.String(), tc.title) {
				t.Errorf("rendering lacks its title %q", tc.title)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "exhibits", tc.name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(csv.Bytes(), want) {
				t.Errorf("%s.csv differs from its golden (re-record with make exhibits-update only with a before/after table)\n--- got\n%s--- want\n%s",
					tc.name, csv.Bytes(), want)
			}
		})
	}
}
