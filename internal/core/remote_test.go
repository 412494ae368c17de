package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/sketch"
)

// memQuerier is an in-process ShardQuerier over a local sharded table:
// the remote merge path exercised without any network, so failures in
// these tests implicate core, not shardnet. Shards listed in fail
// answer with an error, modelling a terminally lost shard.
type memQuerier struct {
	sf   *sketch.ShardedFrozen
	meta IndexMeta

	mu    sync.Mutex
	fail  map[int]bool
	calls int
}

func (mq *memQuerier) Info() IndexMeta { return mq.meta }

func (mq *memQuerier) QueryShard(ctx context.Context, shard int, trials []int32, words []sketch.Word) ([][]sketch.Posting, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mq.mu.Lock()
	mq.calls++
	failed := mq.fail[shard]
	mq.mu.Unlock()
	if failed {
		return nil, fmt.Errorf("memQuerier: shard %d down", shard)
	}
	lists := make([][]sketch.Posting, len(trials))
	for i, t32 := range trials {
		lists[i] = mq.sf.Shard(shard).Lookup(int(t32), words[i])
	}
	return lists, nil
}

func (mq *memQuerier) setFail(shard int, down bool) {
	mq.mu.Lock()
	defer mq.mu.Unlock()
	if mq.fail == nil {
		mq.fail = map[int]bool{}
	}
	mq.fail[shard] = down
}

// remoteMapper opens a sharded mapper's saved index through the fleet
// open, served by a memQuerier over the original's shards that
// announces the index's identity.
func remoteMapper(t *testing.T, local *Mapper) (*Mapper, *memQuerier) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.jem")
	if err := local.WriteIndexFile(path); err != nil {
		t.Fatal(err)
	}
	_, meta, err := ReadShardSubsetFile(path, func(int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	mq := &memQuerier{sf: local.Sharded(), meta: meta}
	m, err := OpenRemoteFile(path, func() (ShardQuerier, error) { return mq, nil })
	if err != nil {
		t.Fatal(err)
	}
	return m, mq
}

// TestRemoteDegradedAnswer: a terminally failing shard is recorded in
// LostShards, the query still completes on the survivors, and once the
// shard recovers fresh queries are exact again. What a degraded answer
// holds, positional estimates included, is the lost-shard row of
// internal/oracle's TestBackendMatrix.
func TestRemoteDegradedAnswer(t *testing.T) {
	fault.LeakCheck(t)
	const p = 4
	local, segs := shardedIndexMapper(t, p)
	remote, mq := remoteMapper(t, local)
	sess := remote.NewSession()
	mq.setFail(1, true)
	for _, seg := range segs {
		sess.MapSegmentPositional(seg) // must complete, degraded
	}
	lost := sess.LostShards()
	if len(lost) != 1 || lost[0] != 1 {
		t.Fatalf("LostShards = %v, want [1]", lost)
	}
	mq.setFail(1, false)
	// A recovered fleet must be exact again on a FRESH session (the lost
	// set is a session-cumulative damage record).
	sl, sr := local.NewSession(), remote.NewSession()
	for i, seg := range segs {
		p1, ok1 := sl.MapSegmentPositional(seg)
		p2, ok2 := sr.MapSegmentPositional(seg)
		if ok1 != ok2 || p1 != p2 {
			t.Fatalf("segment %d after recovery: local %v,%v remote %v,%v", i, p1, ok1, p2, ok2)
		}
	}
	if sr.LostShards() != nil {
		t.Fatal("recovered fleet reported lost shards")
	}
}

// TestRemoteAllShardsLost: even with the whole fleet down every query
// completes (as a miss) and names every touched shard.
func TestRemoteAllShardsLost(t *testing.T) {
	const p = 2
	local, segs := shardedIndexMapper(t, p)
	remote, mq := remoteMapper(t, local)
	for sd := 0; sd < p; sd++ {
		mq.setFail(sd, true)
	}
	sess := remote.NewSession()
	for _, seg := range segs {
		if _, ok := sess.MapSegment(seg); ok {
			t.Fatal("query against a fully lost fleet reported a hit")
		}
	}
	if lost := sess.LostShards(); len(lost) != p {
		t.Fatalf("LostShards = %v, want all %d shards", lost, p)
	}
	if sess.PostingsScanned() != 0 {
		t.Fatalf("lost fleet scanned %d postings", sess.PostingsScanned())
	}
}

// TestRemoteContextCancelled: a session context cancelled before the
// query turns every touched shard into a lost shard rather than a
// hang or a panic.
func TestRemoteContextCancelled(t *testing.T) {
	local, segs := shardedIndexMapper(t, 2)
	remote, _ := remoteMapper(t, local)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess := remote.NewSession().WithContext(ctx)
	if _, ok := sess.MapSegment(segs[0]); ok {
		t.Fatal("cancelled query reported a hit")
	}
	if len(sess.LostShards()) == 0 {
		t.Fatal("cancelled query recorded no lost shards")
	}
}

// TestReadShardSubsetFile: a subset load yields exactly the kept
// shards, each lookup-identical to the full load's shard, and the
// manifest fingerprint matches the full load's, which describes the
// index.
func TestReadShardSubsetFile(t *testing.T) {
	const p = 4
	local, _ := shardedIndexMapper(t, p)
	path := filepath.Join(t.TempDir(), "idx.jem")
	if err := local.WriteIndexFile(path); err != nil {
		t.Fatal(err)
	}
	_, fullMeta, err := ReadShardSubsetFile(path, func(int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if fullMeta.Shards != p || fullMeta.T != smallParams().T || fullMeta.NumSubjects != local.NumSubjects() {
		t.Fatalf("meta %+v disagrees with the mapper", fullMeta)
	}
	keep := func(sd int) bool { return sd%2 == 0 }
	tables, meta, err := ReadShardSubsetFile(path, keep)
	if err != nil {
		t.Fatal(err)
	}
	if meta != fullMeta {
		t.Fatalf("subset meta %+v != full meta %+v", meta, fullMeta)
	}
	if len(tables) != p/2 {
		t.Fatalf("subset kept %d shards, want %d", len(tables), p/2)
	}
	sf := local.Sharded()
	for sd, ft := range tables {
		if !keep(sd) {
			t.Fatalf("subset contains unkept shard %d", sd)
		}
		if ft.Entries() != sf.Shard(sd).Entries() {
			t.Fatalf("shard %d: subset entries %d != full %d", sd, ft.Entries(), sf.Shard(sd).Entries())
		}
	}
	if _, _, err := ReadShardSubsetFile(path, func(int) bool { return false }); err == nil {
		t.Fatal("keep-none selection did not error")
	}
}

// TestReadIndexMetaRejectsUnsharded: the fleet open and the subset
// load refuse a file that is not an index — there is no unsharded
// layout any more, so "not sharded" means "not JEMIDX06" — and report
// a missing file as such. The fleet open fails before it dials.
func TestReadIndexMetaRejectsUnsharded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flat.jem")
	if err := os.WriteFile(path, []byte("NOTANINDEXATALL!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRemoteFile(path, noDial(t)); err == nil {
		t.Fatal("OpenRemoteFile accepted a non-index file")
	}
	if _, _, err := ReadShardSubsetFile(path, func(int) bool { return true }); err == nil {
		t.Fatal("ReadShardSubsetFile accepted a non-index file")
	}
	if _, err := OpenRemoteFile(filepath.Join(t.TempDir(), "missing.jem"), noDial(t)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file error = %v, want ErrNotExist", err)
	}
}

// noDial is the dial of a fleet open that must fail on the manifest.
func noDial(t *testing.T) func() (ShardQuerier, error) {
	return func() (ShardQuerier, error) {
		t.Error("the fleet open dialed before its manifest checked out")
		return nil, errors.New("no fleet")
	}
}
