package shardnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sketch"
)

// testIndex builds a deterministic sharded table with p shards and
// returns the per-shard tables keyed by shard id plus the matching
// Info and the local ShardedFrozen (the byte-identity oracle).
func testIndex(t *testing.T, p, subjects int) (map[int]*sketch.FrozenTable, Info, *sketch.ShardedFrozen) {
	t.Helper()
	const trials = 16
	sk, err := sketch.NewSketcher(sketch.Params{K: 12, W: 5, T: trials, L: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	build := sketch.NewBuilder(trials)
	a := build.Appender()
	contig := make([]byte, 1500)
	for subj := 0; subj < subjects; subj++ {
		for i := range contig {
			contig[i] = "ACGT"[rng.Intn(4)]
		}
		sk.AppendSubject(a, int32(subj), contig, true)
	}
	sf, err := build.Freeze(p, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tables := make(map[int]*sketch.FrozenTable, p)
	for i := 0; i < sf.NumShards(); i++ {
		tables[i] = sf.Shard(i)
	}
	info := Info{Shards: p, T: trials, NumSubjects: subjects, ManifestCRC: 0xfeedbeef}
	return tables, info, sf
}

// startServer runs a real Server over a unix socket and returns its
// coordinator-format address.
func startServer(t *testing.T, tables map[int]*sketch.FrozenTable, info Info) string {
	t.Helper()
	srv, err := NewServer(tables, info)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.sock")
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(ln)
	t.Cleanup(func() { _ = srv.Close() })
	return "unix:" + path
}

// probeBatch routes nprobes random single-trial probes through
// ShardOf and returns them grouped per shard, mirroring what
// core.Session.scanRemoteWords sends.
func probeBatch(p, trials, nprobes int, seed int64) (perShardTrials map[int][]int32, perShardWords map[int][]sketch.Word) {
	rng := rand.New(rand.NewSource(seed))
	perShardTrials = make(map[int][]int32)
	perShardWords = make(map[int][]sketch.Word)
	for i := 0; i < nprobes; i++ {
		ti := rng.Intn(trials)
		w := sketch.Word(rng.Uint64() >> 8)
		sd := sketch.ShardOf(ti, w, p)
		perShardTrials[sd] = append(perShardTrials[sd], int32(ti))
		perShardWords[sd] = append(perShardWords[sd], w)
	}
	return perShardTrials, perShardWords
}

// goroutinesSettle polls until at most base goroutines are running.
func goroutinesSettle(base int, within time.Duration) bool {
	deadline := time.Now().Add(within)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// leakCheck fails the test if goroutines it started are still running
// after its coordinators and servers are closed. Call it first: cleanups
// run last-in first-out, so this one runs after the servers' Close.
func leakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		if !goroutinesSettle(base, 2*time.Second) {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines after close, %d before the test:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	})
}

// checkLocal asserts that lists are exactly the local Lookup lists of
// the probes — the byte-identity oracle.
func checkLocal(t *testing.T, tbl *sketch.FrozenTable, trials []int32, words []sketch.Word, lists [][]sketch.Posting) {
	t.Helper()
	if len(lists) != len(trials) {
		t.Fatalf("%d lists for %d probes", len(lists), len(trials))
	}
	for i, ti := range trials {
		want := tbl.Lookup(int(ti), words[i])
		if len(lists[i]) != len(want) {
			t.Fatalf("probe %d: %d postings, want %d", i, len(lists[i]), len(want))
		}
		for j := range want {
			if lists[i][j] != want[j] {
				t.Fatalf("probe %d posting %d: %+v want %+v", i, j, lists[i][j], want[j])
			}
		}
	}
}

// The frames TestProtocolRoundtrip round-trips; FuzzFrames starts from
// the same ones.
var (
	rtInfo   = Info{Shards: 8, T: 32, NumSubjects: 1000, ManifestCRC: 0xdeadbeef}
	rtOwned  = []int{0, 3, 7}
	rtTrials = []int32{0, 5, 31}
	rtWords  = []sketch.Word{1, 1 << 55, ^sketch.Word(0) >> 8}
	rtLists  = [][]sketch.Posting{
		{{Subject: 4, Anchor: 99}, {Subject: 7, Anchor: -1}},
		nil,
		{{Subject: 0, Anchor: 0}},
	}
)

func TestProtocolRoundtrip(t *testing.T) {
	info, owned := rtInfo, rtOwned
	typ, body, err := readMsgBytes(encodeHelloAck(info, owned))
	if err != nil || typ != msgHelloAck {
		t.Fatalf("helloAck frame: typ=%d err=%v", typ, err)
	}
	gotInfo, gotOwned, err := decodeHelloAck(body)
	if err != nil || gotInfo != info || !reflect.DeepEqual(gotOwned, owned) {
		t.Fatalf("helloAck roundtrip: %+v %v %v", gotInfo, gotOwned, err)
	}

	trials, words := rtTrials, rtWords
	typ, body, err = readMsgBytes(encodeQuery(6, trials, words))
	if err != nil || typ != msgQuery {
		t.Fatalf("query frame: typ=%d err=%v", typ, err)
	}
	shard, gotTrials, gotWords, err := decodeQuery(body)
	if err != nil || shard != 6 || !reflect.DeepEqual(gotTrials, trials) || !reflect.DeepEqual(gotWords, words) {
		t.Fatalf("query roundtrip: shard=%d %v %v %v", shard, gotTrials, gotWords, err)
	}

	lists := rtLists
	typ, body, err = readMsgBytes(encodeReply(lists))
	if err != nil || typ != msgReply {
		t.Fatalf("reply frame: typ=%d err=%v", typ, err)
	}
	gotLists, err := decodeReply(body)
	if err != nil || !reflect.DeepEqual(gotLists, lists) {
		t.Fatalf("reply roundtrip: %v %v", gotLists, err)
	}
}

// TestReadMsgLongFrame covers the path short frames never take: a frame
// past the eager allocation is grown as it arrives, whole or not at all.
func TestReadMsgLongFrame(t *testing.T) {
	msg := strings.Repeat("0123456789abcdef", 3<<16) + "tail" // 3 MiB + 4
	frame := encodeErr(msg)
	typ, body, err := readMsgBytes(frame)
	if err != nil || typ != msgErr || string(body) != msg {
		t.Fatalf("long frame: typ=%d len=%d err=%v", typ, len(body), err)
	}
	if _, _, err := readMsgBytes(frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated long frame read without error")
	}
}

// readMsgBytes parses one framed message from a byte slice.
func readMsgBytes(frame []byte) (byte, []byte, error) {
	return readMsg(bufio.NewReader(bytes.NewReader(frame)))
}

func TestQueryMatchesLocalLookup(t *testing.T) {
	leakCheck(t)
	const p = 4
	tables, info, sf := testIndex(t, p, 50)
	addr := startServer(t, tables, info)
	coord, err := Dial(context.Background(), []string{addr}, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	if coord.NumShards() != p || coord.Info() != info {
		t.Fatalf("coordinator info %+v, want %+v", coord.Info(), info)
	}
	perShardTrials, perShardWords := probeBatch(p, info.T, 400, 7)
	for sd := 0; sd < p; sd++ {
		lists, err := coord.QueryShard(context.Background(), sd, perShardTrials[sd], perShardWords[sd])
		if err != nil {
			t.Fatalf("shard %d: %v", sd, err)
		}
		if len(lists) != len(perShardTrials[sd]) {
			t.Fatalf("shard %d: %d lists for %d probes", sd, len(lists), len(perShardTrials[sd]))
		}
		for i, ti := range perShardTrials[sd] {
			want := sf.Shard(sd).Lookup(int(ti), perShardWords[sd][i])
			got := lists[i]
			if len(got) != len(want) {
				t.Fatalf("shard %d probe %d: %d postings, want %d", sd, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("shard %d probe %d posting %d: %+v want %+v", sd, i, j, got[j], want[j])
				}
			}
		}
	}
}

func TestDialRejectsIncoherentFleet(t *testing.T) {
	leakCheck(t)
	tables, info, _ := testIndex(t, 4, 20)
	// Coverage hole: a server owning only shards {0,1} cannot serve a
	// 4-shard index alone.
	partial := map[int]*sketch.FrozenTable{0: tables[0], 1: tables[1]}
	addr := startServer(t, partial, info)
	if _, err := Dial(context.Background(), []string{addr}, Config{}, nil); err == nil {
		t.Fatal("Dial accepted a fleet with uncovered shards")
	}
	// Identity mismatch: same shards, different manifest CRC.
	otherInfo := info
	otherInfo.ManifestCRC++
	addrA := startServer(t, tables, info)
	addrB := startServer(t, tables, otherInfo)
	if _, err := Dial(context.Background(), []string{addrA, addrB}, Config{}, nil); err == nil {
		t.Fatal("Dial accepted servers announcing different indexes")
	}
}

func TestDialInjectedDialError(t *testing.T) {
	leakCheck(t)
	defer fault.Reset()
	tables, info, _ := testIndex(t, 2, 10)
	addr := startServer(t, tables, info)
	fault.Set(fault.ConnDialErr, fault.Spec{})
	_, err := Dial(context.Background(), []string{addr}, Config{}, nil)
	if !errors.Is(err, fault.ErrInjectedDial) {
		t.Fatalf("err=%v, want ErrInjectedDial", err)
	}
}

func TestRetryRecoversFromShardDown(t *testing.T) {
	leakCheck(t)
	defer fault.Reset()
	const p = 2
	tables, info, sf := testIndex(t, p, 20)
	addr := startServer(t, tables, info)
	coord, err := Dial(context.Background(), []string{addr}, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	coord.backoff = time.Millisecond
	// The server drops the first query connection without replying (a
	// crashed shard), and the redial fails too; the default budget of
	// 1+2 attempts still lands the query on the third try.
	fault.Set(fault.ShardDown, fault.Spec{Times: 1})
	fault.Set(fault.ConnDialErr, fault.Spec{Times: 1})
	perShardTrials, perShardWords := probeBatch(p, info.T, 60, 3)
	sd := 0
	lists, err := coord.QueryShard(context.Background(), sd, perShardTrials[sd], perShardWords[sd])
	if err != nil {
		t.Fatalf("query did not recover: %v", err)
	}
	for i, ti := range perShardTrials[sd] {
		want := sf.Shard(sd).Lookup(int(ti), perShardWords[sd][i])
		if len(lists[i]) != len(want) {
			t.Fatalf("probe %d: %d postings, want %d", i, len(lists[i]), len(want))
		}
	}
	if got := coord.retries.Value(); got < 1 {
		t.Fatalf("retries counter = %d, want >= 1", got)
	}
	if got := coord.rpcErrors.Value(); got < 2 {
		t.Fatalf("rpc error counter = %d, want >= 2", got)
	}
}

func TestDegradedAnswerAfterBudgetExhausted(t *testing.T) {
	leakCheck(t)
	defer fault.Reset()
	const p = 2
	tables, info, _ := testIndex(t, p, 20)
	addr := startServer(t, tables, info)
	coord, err := Dial(context.Background(), []string{addr}, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	coord.backoff = time.Millisecond
	// Every query connection dies without a reply: the shard is down
	// for good and the budget must exhaust into a *ShardError.
	fault.Set(fault.ShardDown, fault.Spec{})
	perShardTrials, perShardWords := probeBatch(p, info.T, 60, 5)
	_, err = coord.QueryShard(context.Background(), 1, perShardTrials[1], perShardWords[1])
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err=%v, want *ShardError", err)
	}
	if se.Shard != 1 {
		t.Fatalf("ShardError.Shard=%d, want 1", se.Shard)
	}
	if got := coord.lost.Value(); got != 1 {
		t.Fatalf("lost counter = %d, want 1", got)
	}
	// The fleet recovers once the fault clears: the same coordinator
	// must serve the shard again (fresh dial through the pool).
	fault.Reset()
	if _, err := coord.QueryShard(context.Background(), 1, perShardTrials[1], perShardWords[1]); err != nil {
		t.Fatalf("query after fault cleared: %v", err)
	}
}

// startSlowReplica runs a protocol-correct server that answers every
// query only after delay — the stuck replica a query must get past.
func startSlowReplica(t *testing.T, tables map[int]*sketch.FrozenTable, info Info, delay time.Duration) string {
	t.Helper()
	owned := make([]int, 0, len(tables))
	for sd := range tables {
		owned = append(owned, sd)
	}
	sort.Ints(owned)
	path := filepath.Join(t.TempDir(), "slow.sock")
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(c net.Conn) {
				defer wg.Done()
				defer func() { _ = c.Close() }()
				br := bufio.NewReader(c)
				for {
					typ, body, err := readMsg(br)
					if err != nil {
						return
					}
					switch typ {
					case msgHello:
						if err := writeAll(c, encodeHelloAck(info, owned)); err != nil {
							return
						}
					case msgPing:
						if err := writeAll(c, encodePong()); err != nil {
							return
						}
					case msgQuery:
						time.Sleep(delay)
						shard, trials, words, err := decodeQuery(body)
						if err != nil {
							return
						}
						lists := make([][]sketch.Posting, len(trials))
						for i, ti := range trials {
							lists[i] = tables[shard].Lookup(int(ti), words[i])
						}
						if err := writeAll(c, encodeReply(lists)); err != nil {
							return
						}
					default:
						return
					}
				}
			}(c)
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
		wg.Wait()
	})
	return "unix:" + path
}

func TestRetryPastStuckReplica(t *testing.T) {
	leakCheck(t)
	const p = 2
	tables, info, sf := testIndex(t, p, 20)
	slow := startSlowReplica(t, tables, info, 400*time.Millisecond)
	fast := startServer(t, tables, info)
	// Replica order matters: the round-robin cursor starts at the slow
	// server, so the first attempt runs into the shard timeout and the
	// retry must land on the fast one.
	coord, err := Dial(context.Background(), []string{slow, fast}, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	coord.timeout = 50 * time.Millisecond
	coord.backoff = time.Millisecond
	perShardTrials, perShardWords := probeBatch(p, info.T, 40, 9)
	lists, err := coord.QueryShard(context.Background(), 0, perShardTrials[0], perShardWords[0])
	if err != nil {
		t.Fatal(err)
	}
	checkLocal(t, sf.Shard(0), perShardTrials[0], perShardWords[0], lists)
	if r, l, e := coord.retries.Value(), coord.lost.Value(), coord.rpcErrors.Value(); r != 1 || l != 0 || e != 1 {
		t.Fatalf("retries=%d lost=%d rpcErrors=%d, want 1 0 1", r, l, e)
	}
}

// TestCancelMidRPC cancels a request while its only replica sits on the
// reply: QueryShard must return at once, leave nothing running and
// nothing poisoned in the pool.
func TestCancelMidRPC(t *testing.T) {
	leakCheck(t)
	const p = 2
	tables, info, sf := testIndex(t, p, 20)
	addr := startSlowReplica(t, tables, info, 400*time.Millisecond)
	coord, err := Dial(context.Background(), []string{addr}, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	perShardTrials, perShardWords := probeBatch(p, info.T, 40, 11)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer time.AfterFunc(10*time.Millisecond, cancel).Stop()
	start := time.Now()
	_, err = coord.QueryShard(ctx, 0, perShardTrials[0], perShardWords[0])
	if d := time.Since(start); d >= 200*time.Millisecond {
		t.Fatalf("cancelled query returned after %v", d)
	}
	var se *ShardError
	if !errors.As(err, &se) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want ShardError wrapping context.Canceled", err)
	}
	if !goroutinesSettle(base, 100*time.Millisecond) {
		t.Fatalf("%d goroutines after the cancelled query, %d before it", runtime.NumGoroutine(), base)
	}
	pl := coord.servers[0].pool
	pl.mu.Lock()
	idle := len(pl.idle)
	pl.mu.Unlock()
	if idle != 0 {
		t.Fatalf("%d pooled connections after a cancelled call, want 0", idle)
	}
	lists, err := coord.QueryShard(context.Background(), 0, perShardTrials[0], perShardWords[0])
	if err != nil {
		t.Fatalf("query after the cancelled one: %v", err)
	}
	checkLocal(t, sf.Shard(0), perShardTrials[0], perShardWords[0], lists)
}

func TestQueryShardContextCancelled(t *testing.T) {
	leakCheck(t)
	tables, info, _ := testIndex(t, 2, 10)
	addr := startServer(t, tables, info)
	coord, err := Dial(context.Background(), []string{addr}, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = coord.QueryShard(ctx, 0, []int32{0}, []sketch.Word{1})
	var se *ShardError
	if !errors.As(err, &se) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want ShardError wrapping context.Canceled", err)
	}
}

func TestPoolHealthCheckedReconnect(t *testing.T) {
	leakCheck(t)
	tables, info, _ := testIndex(t, 2, 10)
	srv, err := NewServer(tables, info)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pool.sock")
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(ln)
	pl := newPool("unix:" + path)
	pl.healthAfter = time.Nanosecond // every reuse must ping
	defer pl.close()
	pc, err := pl.get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pl.put(pc)
	// Kill the server: the pooled conn is now dead, the health ping
	// must condemn it, and with nothing listening the redial fails.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.get(context.Background()); err == nil {
		t.Fatal("get succeeded against a dead server")
	}
	// Restart on the same path: the pool recovers transparently.
	ln2, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(tables, info)
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start(ln2)
	defer func() { _ = srv2.Close() }()
	pc2, err := pl.get(context.Background())
	if err != nil {
		t.Fatalf("get after restart: %v", err)
	}
	if !pc2.healthy(time.Second) {
		t.Fatal("fresh conn not healthy")
	}
	pl.put(pc2)
}

func TestServerRefusesUnownedShard(t *testing.T) {
	leakCheck(t)
	tables, info, _ := testIndex(t, 4, 10)
	partial := map[int]*sketch.FrozenTable{0: tables[0], 1: tables[1], 2: tables[2], 3: tables[3]}
	delete(partial, 3)
	addr := startServer(t, partial, info)
	pl := newPool(addr)
	defer pl.close()
	pc, err := pl.get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pc.c.Close() }()
	if err := writeAll(pc.c, encodeQuery(3, []int32{0}, []sketch.Word{1})); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readMsg(pc.br)
	if err != nil || typ != msgErr {
		t.Fatalf("typ=%d err=%v, want msgErr", typ, err)
	}
	if want := "shard 3 not owned"; !strings.Contains(string(body), want) {
		t.Fatalf("err body %q does not mention %q", body, want)
	}
}
