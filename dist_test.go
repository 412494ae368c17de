package jem_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shardnet"
)

// startShardFleet carves the index at path into nServers in-process
// shard servers on unix sockets (server i owns the shards ≡ i mod
// nServers) and returns their dial addresses plus per-server shard
// ownership. Servers are torn down with the test; killServer shuts
// one down early.
func startShardFleet(t *testing.T, indexPath string, nServers int) (addrs []string, owned [][]int, kill func(i int)) {
	t.Helper()
	dir := t.TempDir()
	servers := make([]*shardnet.Server, nServers)
	for i := 0; i < nServers; i++ {
		i := i
		tables, meta, err := core.ReadShardSubsetFile(indexPath, func(sd int) bool { return sd%nServers == i })
		if err != nil {
			t.Fatalf("server %d subset load: %v", i, err)
		}
		srv, err := shardnet.NewServer(tables, meta)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("unix", filepath.Join(dir, fmt.Sprintf("s%d.sock", i)))
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(ln)
		servers[i] = srv
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, "unix:"+ln.Addr().String())
		owned = append(owned, srv.Owned())
	}
	return addrs, owned, func(i int) { _ = servers[i].Close() }
}

// distWorld builds the shared dataset once and serializes its reads.
func distWorld(t *testing.T) (*jem.Dataset, []byte) {
	t.Helper()
	ds := buildSmallDataset(t)
	var reads bytes.Buffer
	if err := writeFASTQ(&reads, ds.Reads); err != nil {
		t.Fatal(err)
	}
	return ds, reads.Bytes()
}

// TestOpenShardServersDegradedAnswer: killing one server of a live
// fleet turns its shards into degraded answers — the stream still
// completes, emits a row for every segment, and names exactly the
// dead server's shards in Stats.ShardsLost.
func TestOpenShardServersDegradedAnswer(t *testing.T) {
	ds, reads := distWorld(t)
	opts := jem.DefaultOptions()
	opts.Shards = 4
	local, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(t.TempDir(), "idx.jem")
	if err := local.SaveIndexFile(idx); err != nil {
		t.Fatal(err)
	}
	addrs, owned, kill := startShardFleet(t, idx, 2)
	remote, _, err := jem.Open(jem.OpenOptions{IndexPath: idx, ShardServers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = remote.Close() }()

	var healthy bytes.Buffer
	if _, err := remote.Stream(context.Background(), bytes.NewReader(reads), &healthy, jem.StreamOptions{}); err != nil {
		t.Fatal(err)
	}

	kill(1)
	var degraded bytes.Buffer
	stats, err := remote.Stream(context.Background(), bytes.NewReader(reads), &degraded, jem.StreamOptions{})
	if err != nil {
		t.Fatalf("degraded stream errored: %v", err)
	}
	if len(stats.ShardsLost) == 0 {
		t.Fatal("dead server produced no lost shards")
	}
	dead := make(map[int]bool)
	for _, sd := range owned[1] {
		dead[sd] = true
	}
	for _, sd := range stats.ShardsLost {
		if !dead[sd] {
			t.Fatalf("lost shard %d is not owned by the killed server (owned %v)", sd, owned[1])
		}
	}
	// Every segment still produced a row: line counts match the healthy
	// run even though some rows carry degraded mappings.
	if hl, dl := bytes.Count(healthy.Bytes(), []byte{'\n'}), bytes.Count(degraded.Bytes(), []byte{'\n'}); hl != dl {
		t.Fatalf("degraded run emitted %d lines, healthy emitted %d", dl, hl)
	}
}

// TestServeShardsLostHeader: the serving tier surfaces a degraded
// answer as the X-JEM-Shards-Lost header while still returning 200
// and the full row set.
func TestServeShardsLostHeader(t *testing.T) {
	ds, reads := distWorld(t)
	opts := jem.DefaultOptions()
	opts.Shards = 4
	local, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(t.TempDir(), "idx.jem")
	if err := local.SaveIndexFile(idx); err != nil {
		t.Fatal(err)
	}
	addrs, _, kill := startShardFleet(t, idx, 2)
	reg := obs.NewRegistry()
	remote, _, err := jem.Open(jem.OpenOptions{
		IndexPath:    idx,
		ShardServers: addrs,
		Options:      jem.Options{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = remote.Close() }()
	s := serve.New(serve.Config{Registry: reg})
	s.AddIndex("asm", remote)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/map/asm", "application/octet-stream", bytes.NewReader(reads))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthy request status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-JEM-Shards-Lost"); got != "" {
		t.Fatalf("healthy request carries X-JEM-Shards-Lost %q", got)
	}

	kill(1)
	resp, err = http.Post(ts.URL+"/v1/map/asm", "application/octet-stream", bytes.NewReader(reads))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("degraded request status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-JEM-Shards-Lost"); got == "" {
		t.Fatal("degraded request missing X-JEM-Shards-Lost header")
	}
}

// TestOpenShardServersFingerprintMismatch: a fleet serving a different
// index than the local manifest is refused at Open, before any query.
func TestOpenShardServersFingerprintMismatch(t *testing.T) {
	ds, _ := distWorld(t)
	opts := jem.DefaultOptions()
	opts.Shards = 2
	m1, err := jem.NewMapper(ds.Contigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Same world, different seed → different index fingerprint.
	opts2 := opts
	opts2.Seed = 99
	m2, err := jem.NewMapper(ds.Contigs, opts2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	idx1, idx2 := filepath.Join(dir, "a.jem"), filepath.Join(dir, "b.jem")
	if err := m1.SaveIndexFile(idx1); err != nil {
		t.Fatal(err)
	}
	if err := m2.SaveIndexFile(idx2); err != nil {
		t.Fatal(err)
	}
	addrs, _, _ := startShardFleet(t, idx2, 1)
	if _, _, err := jem.Open(jem.OpenOptions{IndexPath: idx1, ShardServers: addrs}); err == nil {
		t.Fatal("Open accepted a fleet serving a different index")
	}
	if _, _, err := jem.Open(jem.OpenOptions{ShardServers: addrs}); err == nil {
		t.Fatal("Open accepted ShardServers without IndexPath")
	}
}
