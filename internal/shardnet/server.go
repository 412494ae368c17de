package shardnet

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/sketch"
)

// Server answers shard queries for the subset of a sharded index it
// holds. One process typically runs one Server (cmd/jem-shardd), but
// tests run several in-process over unix sockets.
//
// The server is deliberately small — decode probe, Lookup, encode
// postings — because the robustness budget is spent client-side: a
// server that stalls or dies is the coordinator's problem to retry or
// degrade past.
type Server struct {
	tables map[int]*sketch.FrozenTable
	info   Info
	owned  []int // sorted shard ids, announced in the hello ack

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	// done closes when the accept-loop goroutine exits, so Close can
	// wait for it (the obs.Server supervision pattern).
	done chan struct{}
}

// NewServer builds a server over the given shard subset. Every table's
// shard id must lie in [0, info.Shards) and all tables must agree on
// the trial count T.
func NewServer(tables map[int]*sketch.FrozenTable, info Info) (*Server, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("shardnet: server needs at least one shard")
	}
	if info.Shards < 1 || info.Shards > sketch.MaxShards {
		return nil, fmt.Errorf("shardnet: implausible shard count %d", info.Shards)
	}
	owned := make([]int, 0, len(tables))
	for sd, tbl := range tables {
		if sd < 0 || sd >= info.Shards {
			return nil, fmt.Errorf("shardnet: shard id %d out of range [0,%d)", sd, info.Shards)
		}
		if tbl == nil {
			return nil, fmt.Errorf("shardnet: shard %d table is nil", sd)
		}
		if tbl.T() != info.T {
			return nil, fmt.Errorf("shardnet: shard %d has %d trials, index says %d", sd, tbl.T(), info.T)
		}
		owned = append(owned, sd)
	}
	sort.Ints(owned)
	return &Server{
		tables: tables,
		info:   info,
		owned:  owned,
		conns:  make(map[net.Conn]struct{}),
		done:   make(chan struct{}),
	}, nil
}

// Owned returns the sorted shard ids this server holds.
func (s *Server) Owned() []int {
	out := make([]int, len(s.owned))
	copy(out, s.owned)
	return out
}

// Start begins accepting connections on ln in a supervised background
// goroutine and returns immediately. Close stops the listener, cuts
// live connections, and waits for every goroutine to exit.
func (s *Server) Start(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go func() {
		defer close(s.done)
		s.acceptLoop(ln)
	}()
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed (Close) or fatal accept error
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(c)
	}
}

func (s *Server) forget(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	_ = c.Close()
}

// handle serves one connection: a strict request/response loop. Any
// read, decode, or write failure drops the connection — the client
// owns recovery.
func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	defer s.forget(c)
	br := bufio.NewReader(c)
	for {
		typ, body, err := readMsg(br)
		if err != nil {
			return
		}
		switch typ {
		case msgHello:
			if err := decodeHello(body); err != nil {
				_ = writeAll(c, encodeErr(err.Error()))
				return
			}
			if err := writeAll(c, encodeHelloAck(s.info, s.owned)); err != nil {
				return
			}
		case msgPing:
			if err := writeAll(c, encodePong()); err != nil {
				return
			}
		case msgQuery:
			// shard.down simulates a crashed shard process: drop the
			// connection without replying, so the coordinator sees an
			// abrupt EOF exactly as it would from a real kill.
			if _, ok := fault.Fire(fault.ShardDown); ok {
				return
			}
			shard, trials, words, err := decodeQuery(body)
			if err != nil {
				_ = writeAll(c, encodeErr(err.Error()))
				return
			}
			tbl, ok := s.tables[shard]
			if !ok {
				// A routing bug, not a transport fault: tell the client
				// and keep the connection.
				if err := writeAll(c, encodeErr(fmt.Sprintf("shard %d not owned by this server", shard))); err != nil {
					return
				}
				continue
			}
			lists := make([][]sketch.Posting, len(trials))
			for i, t := range trials {
				if int(t) < 0 || int(t) >= s.info.T {
					if err := writeAll(c, encodeErr(fmt.Sprintf("trial %d out of range [0,%d)", t, s.info.T))); err != nil {
						return
					}
					lists = nil
					break
				}
				lists[i] = tbl.Lookup(int(t), words[i])
			}
			if lists == nil {
				continue
			}
			if err := writeAll(c, encodeReply(lists)); err != nil {
				return
			}
		default:
			_ = writeAll(c, encodeErr(fmt.Sprintf("unknown message type %d", typ)))
			return
		}
	}
}

// Close stops the listener, closes every live connection, and waits
// for the accept loop and all per-connection goroutines to exit. It is
// idempotent.
func (s *Server) Close() error {
	ln, live, already := s.beginClose()
	var err error
	if !already {
		if ln != nil {
			err = ln.Close()
		}
		for _, c := range live {
			_ = c.Close() // teardown path; the read loop reports real errors
		}
	}
	if ln != nil {
		<-s.done
	}
	s.wg.Wait()
	return err
}

// beginClose flips the closed flag and snapshots what must be torn
// down, all under the lock. The blocking waits (accept-loop exit,
// per-connection goroutines) happen in Close with the lock released,
// so a slow teardown never stalls Start or the accept loop's forget.
func (s *Server) beginClose() (ln net.Listener, live []net.Conn, already bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.ln, nil, true
	}
	s.closed = true
	live = make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		live = append(live, c)
	}
	return s.ln, live, false
}
