package jem_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"repro"
)

// mapAll, positionalAll and streamAll run the read-set entry points
// under a background context (mapAll and streamAll with zero options).
// A local heap-resident mapper cannot fail under a background context,
// so the panics are unreachable in the tests that use these.

func mapAll(m *jem.Mapper, reads []jem.Record) []jem.Mapping {
	mappings, err := m.Map(context.Background(), reads, jem.MapOptions{})
	if err != nil {
		panic(err)
	}
	return mappings
}

func streamAll(m *jem.Mapper, r io.Reader, w io.Writer) (jem.Stats, error) {
	return m.Stream(context.Background(), r, w, jem.StreamOptions{})
}

func positionalAll(m *jem.Mapper, reads []jem.Record) []jem.PositionalMapping {
	pms, err := m.MapReadsPositional(context.Background(), reads)
	if err != nil {
		panic(err)
	}
	return pms
}

// streamFormat streams reads, written as FASTQ, through m in format f
// and returns what Stream wrote.
func streamFormat(t *testing.T, m *jem.Mapper, reads []jem.Record, f jem.Format) []byte {
	t.Helper()
	var in, out bytes.Buffer
	if err := writeFASTQ(&in, reads); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stream(context.Background(), &in, &out, jem.StreamOptions{Format: f}); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
