package shardnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sketch"
)

// Config has no fields: each setting below had one value in use, so
// they are constants. The type and Dial's parameter remain only because
// benchmark/layers.go names them; the next PR allowed to edit
// benchmark/ should drop both.
type Config struct{}

const (
	// shardTimeout bounds one attempt. It composes with the request
	// context: an attempt ends at whichever expires first.
	shardTimeout = 2 * time.Second
	// maxRetries is how many further attempts, round-robin over replicas,
	// a failed shard query gets before the shard is lost for the query.
	maxRetries = 2
	// retryBackoff precedes the first retry and doubles per retry; every
	// wait is jittered into [d/2, d) so retry storms cannot synchronize.
	retryBackoff = 5 * time.Millisecond
	// dialTimeout bounds connection establishment and pool health pings.
	dialTimeout = time.Second
	// maxIdlePerServer bounds each server's idle-connection pool.
	maxIdlePerServer = 4
	// healthCheckAfter is how long a pooled connection may idle before
	// reuse requires a ping round-trip.
	healthCheckAfter = 30 * time.Second
)

// ShardError is the terminal failure of one shard query: every
// attempt the retry budget allowed has failed. The mapping layer
// records the shard as lost for the query and completes the gather
// with the surviving shards (the degraded-answer contract).
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shardnet: shard %d unavailable: %v", e.Shard, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// remote is one shard server as the coordinator sees it: its pool
// and a liveness gauge flipped on attempt outcomes.
type remote struct {
	addr string
	pool *pool
	up   *obs.Gauge
}

// Coordinator is the client side of the shard protocol: it owns one
// connection pool per server, routes each shard's probe batch to a
// server owning that shard, and wraps every query in the deadline /
// retry loop. It is safe for concurrent use by many sessions. It
// satisfies core.ShardQuerier.
type Coordinator struct {
	info    Info
	servers []*remote
	byShard [][]*remote // replicas per shard, server order

	// shardTimeout and retryBackoff; fields so in-package tests can shorten them
	timeout, backoff time.Duration

	rpcs, rpcErrors, retries, lost *obs.Counter

	rrMu sync.Mutex
	rr   []int // per-shard round-robin replica cursor
}

// Dial connects to every server address ("host:port" TCP or
// "unix:/path"), handshakes each one, and validates that the fleet is
// coherent: every server must announce the same index identity and
// the union of owned shards must cover all of [0, P). Servers that
// share a shard become replicas for it (retry targets). Instruments are
// registered on reg (nil = a private registry).
func Dial(ctx context.Context, addrs []string, _ Config, reg *obs.Registry) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, errors.New("shardnet: no server addresses")
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Coordinator{
		timeout:   shardTimeout,
		backoff:   retryBackoff,
		rpcs:      reg.Counter("jem_shardnet_rpcs_total", "shard queries attempted (incl. retries)"),
		rpcErrors: reg.Counter("jem_shardnet_rpc_errors_total", "shard query attempts that failed"),
		retries:   reg.Counter("jem_shardnet_retries_total", "shard query retry attempts"),
		lost:      reg.Counter("jem_shardnet_shards_lost_total", "shard queries that exhausted every attempt"),
	}
	for i, addr := range addrs {
		pl := newPool(addr)
		info, owned, err := handshake(ctx, pl)
		if err != nil {
			pl.close()
			_ = c.Close() // dial failed; the handshake error is the one to report
			return nil, fmt.Errorf("shardnet: handshake with %s: %w", addr, err)
		}
		if i == 0 {
			c.info = info
			c.byShard = make([][]*remote, info.Shards)
		} else if info != c.info {
			pl.close()
			_ = c.Close() // dial failed; the mismatch error is the one to report
			return nil, fmt.Errorf("shardnet: server %s announces index %+v, %s announced %+v",
				addr, info, addrs[0], c.info)
		}
		sv := &remote{
			addr: addr,
			pool: pl,
			up:   reg.Gauge(fmt.Sprintf("jem_shardnet_server%d_up", i), "1 when the last attempt against "+addr+" succeeded"),
		}
		sv.up.Set(1)
		c.servers = append(c.servers, sv)
		for _, sd := range owned {
			c.byShard[sd] = append(c.byShard[sd], sv)
		}
	}
	var missing []int
	for sd, reps := range c.byShard {
		if len(reps) == 0 {
			missing = append(missing, sd)
		}
	}
	if len(missing) > 0 {
		_ = c.Close() // dial failed; the coverage error is the one to report
		return nil, fmt.Errorf("shardnet: shards %v are not served by any server", missing)
	}
	c.rr = make([]int, c.info.Shards)
	return c, nil
}

func handshake(ctx context.Context, pl *pool) (Info, []int, error) {
	pc, err := pl.get(ctx)
	if err != nil {
		return Info{}, nil, err
	}
	if err := pc.c.SetDeadline(time.Now().Add(shardTimeout)); err != nil {
		_ = pc.c.Close()
		return Info{}, nil, err
	}
	if err := writeAll(pc.c, encodeHello()); err != nil {
		_ = pc.c.Close()
		return Info{}, nil, err
	}
	typ, body, err := readMsg(pc.br)
	if err != nil {
		_ = pc.c.Close()
		return Info{}, nil, err
	}
	if typ == msgErr {
		_ = pc.c.Close()
		return Info{}, nil, fmt.Errorf("server refused hello: %s", body)
	}
	if typ != msgHelloAck {
		_ = pc.c.Close()
		return Info{}, nil, fmt.Errorf("unexpected hello reply type %d", typ)
	}
	info, owned, err := decodeHelloAck(body)
	if err != nil {
		_ = pc.c.Close()
		return Info{}, nil, err
	}
	pl.put(pc)
	return info, owned, nil
}

// Info returns the index identity the fleet agreed on at Dial time.
func (c *Coordinator) Info() Info { return c.info }

// NumShards returns the index's total shard count P.
func (c *Coordinator) NumShards() int { return c.info.Shards }

// Close shuts every connection pool down. In-flight queries fail with
// pool-closed errors.
func (c *Coordinator) Close() error {
	for _, sv := range c.servers {
		sv.pool.close()
	}
	return nil
}

// QueryShard resolves one shard's probe batch — probe i is
// ⟨trials[i], words[i]⟩ — against the fleet, returning one posting
// list per probe. Attempts run one at a time on the calling goroutine:
// the first goes to the shard's next replica (round-robin); a failed
// one is retried on the following replica after a doubling jittered
// backoff until the budget (1 + maxRetries) is spent. A nil error means
// the returned lists are exactly what the local sharded backend would
// have produced. A *ShardError means the shard is lost for this query.
func (c *Coordinator) QueryShard(ctx context.Context, shard int, trials []int32, words []sketch.Word) ([][]sketch.Posting, error) {
	if shard < 0 || shard >= len(c.byShard) {
		return nil, fmt.Errorf("shardnet: shard %d out of range [0,%d)", shard, len(c.byShard))
	}
	if err := ctx.Err(); err != nil {
		return nil, &ShardError{Shard: shard, Err: err}
	}
	reps := c.byShard[shard]
	backoff := c.backoff
	var err error
	for attempt := 0; ; attempt++ {
		sv := reps[c.nextReplica(shard, len(reps))]
		c.rpcs.Inc()
		var lists [][]sketch.Posting
		if lists, err = c.queryOnce(ctx, sv, shard, trials, words); err == nil {
			sv.up.Set(1)
			return lists, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			err = cerr // the request ended; that says nothing about the server
			break
		}
		c.rpcErrors.Inc()
		sv.up.Set(0)
		if attempt == maxRetries {
			break
		}
		if err = sleepCtx(ctx, jitter(backoff)); err != nil {
			break
		}
		backoff *= 2
		c.retries.Inc()
	}
	c.lost.Inc()
	return nil, &ShardError{Shard: shard, Err: err}
}

// nextReplica advances the shard's round-robin cursor, so queries and
// their retries spread across replicas instead of hammering one server.
func (c *Coordinator) nextReplica(shard, n int) int {
	if n == 1 {
		return 0
	}
	c.rrMu.Lock()
	i := c.rr[shard] % n
	c.rr[shard]++
	c.rrMu.Unlock()
	return i
}

// queryOnce runs one attempt over one pooled connection, bounded by
// the request context and the per-shard timeout, whichever is sooner.
// A connection goes back to the pool only when the exchange left it in
// protocol sync and the request did not end while it was in use.
func (c *Coordinator) queryOnce(ctx context.Context, sv *remote, shard int, trials []int32, words []sketch.Word) ([][]sketch.Posting, error) {
	dl := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		dl = d
	}
	pc, err := sv.pool.get(ctx)
	if err != nil {
		return nil, err
	}
	if err := pc.c.SetDeadline(dl); err != nil {
		_ = pc.c.Close()
		return nil, err
	}
	// A cancelled request hits no deadline, so expire the connection's
	// when ctx ends and the blocked read returns at once. Registered
	// after SetDeadline(dl), which would otherwise overwrite it.
	stop := context.AfterFunc(ctx, func() { _ = pc.c.SetDeadline(time.Unix(1, 0)) })
	lists, inSync, err := exchange(pc, sv.addr, shard, trials, words)
	if stop() && inSync {
		sv.pool.put(pc)
	} else {
		_ = pc.c.Close() // stop() == false: the expiry ran or is running
	}
	return lists, err
}

// exchange sends one query and reads its reply. inSync reports whether
// the connection is at a frame boundary afterwards, i.e. reusable.
func exchange(pc *pconn, addr string, shard int, trials []int32, words []sketch.Word) (lists [][]sketch.Posting, inSync bool, err error) {
	if err := writeAll(pc.c, encodeQuery(shard, trials, words)); err != nil {
		return nil, false, err
	}
	typ, body, err := readMsg(pc.br)
	if err != nil {
		return nil, false, err
	}
	switch typ {
	case msgReply:
		lists, err := decodeReply(body)
		if err != nil {
			return nil, false, err
		}
		if len(lists) != len(trials) {
			return nil, false, fmt.Errorf("shardnet: %d reply lists for %d probes", len(lists), len(trials))
		}
		return lists, true, nil
	case msgErr:
		// The server answered coherently; the connection is fine even
		// though the query was refused.
		return nil, true, fmt.Errorf("shardnet: server %s: %s", addr, body)
	default:
		return nil, false, fmt.Errorf("shardnet: unexpected reply type %d", typ)
	}
}

// jitter spreads d into [d/2, d) so concurrent retries desynchronize.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half))
}

// sleepCtx waits d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
