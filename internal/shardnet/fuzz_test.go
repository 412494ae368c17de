package shardnet

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzFrames feeds arbitrary bytes to the frame reader and, when a
// frame comes out, to the decoder its type byte selects — what both the
// client and the server do with bytes off the wire. The contract:
// error, never panic, and allocation bounded by the input's length.
func FuzzFrames(f *testing.F) {
	for _, frame := range [][]byte{
		encodeHello(),
		encodeHelloAck(rtInfo, rtOwned),
		encodeQuery(6, rtTrials, rtWords),
		encodeReply(rtLists),
		encodePing(),
		encodeErr("shard 3 not owned by this server"),
		{0xff, 0xff, 0xff, 0x03, msgReply},                      // 64 MiB announced, none sent
		{9, 0, 0, 0, msgQuery, 0, 0, 0, 0, 0xff, 0xff, 0x0f, 0}, // 2^20 probes announced
		{5, 0, 0, 0, msgReply, 0xff, 0xff, 0x0f, 0},             // 2^20 lists announced
		{21, 0, 0, 0, msgHelloAck, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10, 0}, // 2^20 owned shards of 1
	} {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		typ, body, err := readMsg(bytes.NewReader(data))
		if err == nil {
			switch typ {
			case msgHello:
				_ = decodeHello(body)
			case msgHelloAck:
				_, _, _ = decodeHelloAck(body)
			case msgQuery:
				_, _, _, _ = decodeQuery(body)
			case msgReply:
				_, _ = decodeReply(body)
			}
		}
		runtime.ReadMemStats(&after)
		// Decoded forms cost at most 6 bytes per input byte (a 24-byte
		// slice header per 4-byte empty list); the constant covers the
		// frame readMsg may allocate on the length prefix's word plus
		// whatever else the process allocated meanwhile.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)+2<<20); got > limit {
			t.Fatalf("%d input bytes made the decoders allocate %d (limit %d)", len(data), got, limit)
		}
	})
}
