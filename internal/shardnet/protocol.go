// Package shardnet distributes the sharded sketch index across
// processes: shard servers (cmd/jem-shardd) each load a subset of a
// saved index's shards and answer scatter-gather count queries over
// a compact length-prefixed binary protocol, and a Coordinator client
// routes per-shard probe batches to them using the same deterministic
// sketch.ShardOf placement the local sharded backend uses — so with
// every shard healthy, remote mapping results are byte-identical to
// local sharded mode.
//
// The robustness layer is the point of the package: per-shard
// deadlines derived from the request context, bounded retries with
// jittered backoff across a shard's replicas, connection pooling with
// health-checked reconnect, and a degraded-answer policy — a query
// against a shard that stays down returns a *ShardError the caller can
// record and continue past, completing the gather with the surviving
// shards. See docs/DISTRIBUTED.md for the contract.
//
// Wire format: every message is one frame — a little-endian u32
// payload length followed by the payload, whose first byte is the
// message type. One request/response exchange is in flight per
// connection at a time; concurrency comes from the pool.
package shardnet

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sketch"
)

// magic is the protocol identifier a client's hello carries; it is
// versioned with the frame layout, not the index format.
const magic = "JEMSHRD1"

// maxFrame bounds any single frame; a length prefix beyond it means a
// corrupt stream or a protocol mismatch, never a legitimate message.
const maxFrame = 1 << 26 // 64 MiB

// Message types. A query names one shard plus its probe batch; the
// reply carries one posting list per probe, in probe order.
const (
	msgHello    byte = 1 // client → server: magic
	msgHelloAck byte = 2 // server → client: Info + owned shard list
	msgQuery    byte = 3 // client → server: shard, probes ⟨trial, word⟩
	msgReply    byte = 4 // server → client: per-probe posting lists
	msgPing     byte = 5 // client → server: pool health check
	msgPong     byte = 6 // server → client
	msgErr      byte = 7 // server → client: human-readable refusal
)

// Info is the index identity a shard server announces in its hello
// acknowledgement. The coordinator refuses to mix servers that
// disagree on any field, and core.OpenRemoteFile compares it with the
// local manifest, so a fleet serving a different build of the index is
// rejected before the first query.
type Info = core.IndexMeta

// writeAll sends one already-framed message.
func writeAll(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}

// readMsg reads one frame and splits off the type byte. It allocates at
// most eagerFrame bytes on the word of the length prefix alone; a longer
// frame is grown as its bytes arrive, so a lying prefix cannot make the
// reader allocate what the peer never sends.
func readMsg(r io.Reader) (byte, []byte, error) {
	const eagerFrame = 1 << 20
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n == 0 {
		return 0, nil, fmt.Errorf("shardnet: empty frame")
	}
	if n > maxFrame {
		return 0, nil, fmt.Errorf("shardnet: frame length %d exceeds limit %d", n, maxFrame)
	}
	buf := make([]byte, min(n, eagerFrame))
	for have := 0; have < n; {
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			return 0, nil, err
		}
		if have = len(buf); have < n {
			buf = append(buf, make([]byte, min(n-have, have))...)
		}
	}
	return buf[0], buf[1:], nil
}

// frame allocates a frame with the 4-byte length prefix and type byte
// filled in, returning the frame and the body ready for appends via
// the encode helpers below. finishFrame patches the length.
func newFrame(typ byte, bodyCap int) []byte {
	f := make([]byte, 5, 5+bodyCap)
	f[4] = typ
	return f
}

func finishFrame(f []byte) []byte {
	binary.LittleEndian.PutUint32(f[:4], uint32(len(f)-4))
	return f
}

func appendU32(f []byte, v uint32) []byte {
	return append(f, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(f []byte, v uint64) []byte {
	f = appendU32(f, uint32(v))
	return appendU32(f, uint32(v>>32))
}

type reader struct {
	p   []byte
	off int
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.p) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint32(r.p[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.off+8 > len(r.p) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint64(r.p[r.off:])
	r.off += 8
	return v, nil
}

func encodeHello() []byte {
	f := newFrame(msgHello, len(magic))
	f = append(f, magic...)
	return finishFrame(f)
}

func decodeHello(body []byte) error {
	if string(body) != magic {
		return fmt.Errorf("shardnet: bad hello magic %q", body)
	}
	return nil
}

// encodeHelloAck carries the index identity plus the sorted list of
// shard ids this server owns.
func encodeHelloAck(info Info, owned []int) []byte {
	f := newFrame(msgHelloAck, 20+4*len(owned))
	f = appendU32(f, uint32(info.Shards))
	f = appendU32(f, uint32(info.T))
	f = appendU32(f, uint32(info.NumSubjects))
	f = appendU32(f, info.ManifestCRC)
	f = appendU32(f, uint32(len(owned)))
	for _, sd := range owned {
		f = appendU32(f, uint32(sd))
	}
	return finishFrame(f)
}

func decodeHelloAck(body []byte) (Info, []int, error) {
	r := &reader{p: body}
	var info Info
	var vals [4]uint32
	for i := range vals {
		v, err := r.u32()
		if err != nil {
			return Info{}, nil, err
		}
		vals[i] = v
	}
	info.Shards = int(vals[0])
	info.T = int(vals[1])
	info.NumSubjects = int(vals[2])
	info.ManifestCRC = vals[3]
	if info.Shards < 1 || info.Shards > sketch.MaxShards {
		return Info{}, nil, fmt.Errorf("shardnet: implausible shard count %d", info.Shards)
	}
	n, err := r.u32()
	if err != nil {
		return Info{}, nil, err
	}
	if int(n) > info.Shards {
		return Info{}, nil, fmt.Errorf("shardnet: server owns %d shards of %d", n, info.Shards)
	}
	owned := make([]int, n)
	for i := range owned {
		v, err := r.u32()
		if err != nil {
			return Info{}, nil, err
		}
		if int(v) >= info.Shards {
			return Info{}, nil, fmt.Errorf("shardnet: owned shard %d out of range [0,%d)", v, info.Shards)
		}
		owned[i] = int(v)
	}
	return info, owned, nil
}

// encodeQuery frames one shard's probe batch: len(trials) probes,
// probe i being ⟨trials[i], words[i]⟩.
func encodeQuery(shard int, trials []int32, words []sketch.Word) []byte {
	f := newFrame(msgQuery, 8+12*len(trials))
	f = appendU32(f, uint32(shard))
	f = appendU32(f, uint32(len(trials)))
	for i, t := range trials {
		f = appendU32(f, uint32(t))
		f = appendU64(f, uint64(words[i]))
	}
	return finishFrame(f)
}

// maxProbes bounds a query's probe count: probes are one-per-trial, so
// anything past the sketch trial-count ceiling is a corrupt frame.
const maxProbes = 1 << 20

func decodeQuery(body []byte) (int, []int32, []sketch.Word, error) {
	r := &reader{p: body}
	shard, err := r.u32()
	if err != nil {
		return 0, nil, nil, err
	}
	n, err := r.u32()
	if err != nil {
		return 0, nil, nil, err
	}
	if n > maxProbes || int(n) > (len(body)-r.off)/12 {
		return 0, nil, nil, fmt.Errorf("shardnet: %d probes: over the limit %d or more than the frame holds", n, maxProbes)
	}
	trials := make([]int32, n)
	words := make([]sketch.Word, n)
	for i := range trials {
		t, err := r.u32()
		if err != nil {
			return 0, nil, nil, err
		}
		w, err := r.u64()
		if err != nil {
			return 0, nil, nil, err
		}
		trials[i] = int32(t)
		words[i] = sketch.Word(w)
	}
	return int(shard), trials, words, nil
}

// encodeReply frames one posting list per probe, in probe order.
// Subjects and anchors are transmitted as the u32 bit patterns of
// their int32 values (anchors may be -1).
func encodeReply(lists [][]sketch.Posting) []byte {
	n := 4
	for _, ps := range lists {
		n += 4 + 8*len(ps)
	}
	f := newFrame(msgReply, n)
	f = appendU32(f, uint32(len(lists)))
	for _, ps := range lists {
		f = appendU32(f, uint32(len(ps)))
		for _, p := range ps {
			f = appendU32(f, uint32(p.Subject))
			f = appendU32(f, uint32(p.Anchor))
		}
	}
	return finishFrame(f)
}

func decodeReply(body []byte) ([][]sketch.Posting, error) {
	r := &reader{p: body}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n > maxProbes || int(n) > (len(body)-r.off)/4 {
		return nil, fmt.Errorf("shardnet: %d reply lists: over the limit %d or more than the frame holds", n, maxProbes)
	}
	lists := make([][]sketch.Posting, n)
	for i := range lists {
		cnt, err := r.u32()
		if err != nil {
			return nil, err
		}
		if rem := len(r.p) - r.off; int(cnt) > rem/8 {
			return nil, fmt.Errorf("shardnet: posting count %d exceeds frame remainder", cnt)
		}
		if cnt == 0 {
			continue
		}
		ps := make([]sketch.Posting, cnt)
		for j := range ps {
			subj, err := r.u32()
			if err != nil {
				return nil, err
			}
			anchor, err := r.u32()
			if err != nil {
				return nil, err
			}
			ps[j] = sketch.Posting{Subject: int32(subj), Anchor: int32(anchor)}
		}
		lists[i] = ps
	}
	return lists, nil
}

func encodePing() []byte { return finishFrame(newFrame(msgPing, 0)) }
func encodePong() []byte { return finishFrame(newFrame(msgPong, 0)) }

func encodeErr(msg string) []byte {
	f := newFrame(msgErr, len(msg))
	f = append(f, msg...)
	return finishFrame(f)
}
