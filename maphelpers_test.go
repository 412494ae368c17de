package jem_test

import (
	"context"
	"io"

	"repro"
)

// mapAll, positionalAll, verifiedAll and streamAll run the read-set
// entry points under a background context (mapAll and streamAll with
// zero options). A local heap-resident mapper cannot fail under a
// background context, so the panics are unreachable in the tests that
// use these.

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

func verifiedAll(m *jem.Mapper, reads []jem.Record, vo jem.VerifyOptions) []jem.VerifiedMapping {
	vms, err := m.MapReadsVerified(context.Background(), reads, vo)
	if err != nil {
		panic(err)
	}
	return vms
}
