package core

import (
	"bufio"
	"context"
	"fmt"
	"os"
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
	// NumShards returns the index's total shard count P; probes are
	// routed with sketch.ShardOf(trial, word, P).
	NumShards() int
	// QueryShard resolves one shard's probe batch under ctx.
	QueryShard(ctx context.Context, shard int, trials []int32, words []sketch.Word) ([][]sketch.Posting, error)
}

// SetRemote installs a remote scatter-gather backend as the mapper's
// serving path, replacing any local table (the typical caller holds a
// meta-only mapper from ReadIndexMetaFile, which has no postings to
// drop). Passing nil restores local serving and panics if there is no
// sealed local table to return to. It must run before sessions are
// issued, and it seals the mapper: no subjects are added afterwards.
func (m *Mapper) SetRemote(q ShardQuerier) {
	if q == nil {
		if m.sharded == nil {
			panic("core: cannot clear the remote backend of a mapper with no sealed local table")
		}
		m.remote = nil
		return
	}
	m.remote = q
	m.build = nil
}

// remoteSource serves from a shard fleet: each touched shard's probes
// go out as one RPC. Because the probes, the per-shard posting lists
// and the counting order all match the local source exactly, a healthy
// fleet yields byte-identical results — including PostingsScanned.
type remoteSource struct{ q ShardQuerier }

func (rs remoteSource) numShards() int { return rs.q.NumShards() }

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

// ReadIndexMetaFile reads only the manifest of an index: the returned
// mapper carries the sketch parameters and subject metadata but NO
// postings (it must be given a backend with SetRemote before it can
// serve), and the IndexMeta carries the fingerprint to validate a
// shard fleet against.
func ReadIndexMetaFile(path string) (*Mapper, IndexMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, IndexMeta{}, err
	}
	defer func() { _ = f.Close() }()
	man, err := readManifest(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return nil, IndexMeta{}, fmt.Errorf("core: index %s: %w", path, err)
	}
	m, err := NewMapper(man.p)
	if err != nil {
		return nil, IndexMeta{}, err
	}
	m.subjects = man.subjects
	return m, man.meta(), nil
}
