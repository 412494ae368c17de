package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/sketch"
)

// ShardQuerier is the remote scatter-gather backend: something that
// can resolve one shard's probe batch — probe i being
// ⟨trials[i], words[i]⟩ — into per-probe posting lists. The concrete
// implementation is shardnet.Coordinator (a fleet of jem-shardd
// processes); core depends only on this interface so the network
// layer stays out of the mapping hot path's dependency tree.
//
// Contract: a nil error means lists[i] holds exactly the postings the
// local sharded table would have returned for probe i (nil for an
// absent word). A non-nil error means the whole batch failed
// terminally after the backend's retry budget — the session
// records the shard as lost for the query and the scan completes
// without it (the degraded-answer policy; see Session.LostShards).
// Implementations must be safe for concurrent use by many sessions.
type ShardQuerier interface {
	// Info returns the identity of the index the fleet serves; probes
	// are routed over its Shards with sketch.ShardOf.
	Info() IndexMeta
	// QueryShard resolves one shard's probe batch under ctx.
	QueryShard(ctx context.Context, shard int, trials []int32, words []sketch.Word) ([][]sketch.Posting, error)
}

// remoteSource serves from a shard fleet: each touched shard's probes
// go out as one RPC. Because the probes, the per-shard posting lists
// and the counting order all match the local source exactly, a healthy
// fleet yields byte-identical results — including PostingsScanned.
type remoteSource struct {
	q ShardQuerier
	p int // the fleet's shard count, fixed at open
}

func (rs remoteSource) numShards() int { return rs.p }

// fetch fans out one RPC per touched shard. A single-shard query runs
// inline; multi-shard queries overlap their network waits (each RPC
// writes only its own shard's slot and its own trials' lists).
func (rs remoteSource) fetch(s *Session, words []sketch.Word, touched []int32) {
	ctx := s.context()
	if len(touched) == 1 {
		rs.query(ctx, s, words, int(touched[0]))
		return
	}
	var wg sync.WaitGroup
	for _, sd := range touched {
		wg.Add(1)
		go func(sd int) {
			defer wg.Done()
			rs.query(ctx, s, words, sd)
		}(int(sd))
	}
	wg.Wait()
}

// query runs one shard's RPC, timing it when shard timing is enabled
// (the wall is the RPC round-trip — the remote analogue of the local
// per-shard lookup time).
func (rs remoteSource) query(ctx context.Context, s *Session, words []sketch.Word, sd int) {
	sh := &s.shards[sd]
	sh.words = sh.words[:0]
	for _, t := range sh.trials {
		sh.words = append(sh.words, words[t])
	}
	var t0 time.Time
	if s.timeShards {
		t0 = time.Now()
	}
	var lists [][]sketch.Posting
	lists, sh.err = rs.q.QueryShard(ctx, sd, sh.trials, sh.words)
	if s.timeShards {
		sh.dur = time.Since(t0)
	}
	if sh.err == nil {
		for i, t := range sh.trials {
			s.plists[t] = lists[i]
		}
	}
}

// IndexMeta identifies an index without its payloads: the shard count,
// the sketch/subject dimensions, and the manifest checksum — the
// fingerprint a shard-server fleet and a coordinator must agree on
// before any query flows.
type IndexMeta struct {
	// Shards is the index's shard count P.
	Shards int
	// T is the sketch trial count.
	T int
	// NumSubjects is the subject-id space size.
	NumSubjects int
	// ManifestCRC is the manifest footer checksum.
	ManifestCRC uint32
}

// OpenRemoteFile opens the index at path for serving from a shard
// fleet, in an order that keeps a corrupt manifest or a mismatched
// fleet from costing more than the manifest's own bytes:
//
//  1. read the manifest alone — params, subjects and IndexMeta;
//  2. call dial for the fleet;
//  3. compare the fleet's Info with the manifest's IndexMeta;
//  4. only then build the sketcher.
//
// The returned mapper is sealed, and its postings live in the fleet.
// The querier dial returns stays the caller's to close, also when
// OpenRemoteFile fails after dial.
func OpenRemoteFile(path string, dial func() (ShardQuerier, error)) (*Mapper, error) {
	f, size, err := openFile(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	man, err := readManifest(f, size)
	if err != nil {
		return nil, fmt.Errorf("core: index %s: %w", path, err)
	}
	return openRemote(man, dial)
}

// openRemote runs steps 2–4 of OpenRemoteFile over a read manifest.
func openRemote(man *shardedManifest, dial func() (ShardQuerier, error)) (*Mapper, error) {
	q, err := dial()
	if err != nil {
		return nil, err
	}
	want := man.meta()
	if got := q.Info(); got != want {
		return nil, fmt.Errorf(
			"core: shard fleet serves a different index: fleet has %d shards, T=%d, %d subjects, manifest %08x; manifest says %d shards, T=%d, %d subjects, %08x",
			got.Shards, got.T, got.NumSubjects, got.ManifestCRC,
			want.Shards, want.T, want.NumSubjects, want.ManifestCRC)
	}
	sk, err := sketch.NewSketcher(man.p)
	if err != nil {
		return nil, err
	}
	return &Mapper{sk: sk, src: remoteSource{q: q, p: want.Shards}, subjects: man.subjects}, nil
}
