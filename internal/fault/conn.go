package fault

import (
	"fmt"
	"net"
	"time"
)

// The network-class injection points wired into the distributed shard
// serving path (internal/shardnet). They follow the same contract as
// the I/O points in fault.go: dormant until armed, deterministic
// after/times counting, and identity wrappers when disarmed.
const (
	// ConnDialErr makes the coordinator's next dial attempt fail with
	// ErrInjectedDial — an unreachable shard server or refused port.
	ConnDialErr = "conn.dial.err"
	// ConnReadStall stalls each wrapped connection read by Spec.Delay —
	// a congested link or a shard server stuck in GC. The read still
	// completes, so this exercises the deadline path rather than error
	// paths.
	ConnReadStall = "conn.read.stall"
	// ConnWriteErr makes a wrapped connection write fail with
	// ErrInjectedWrite — a peer that closed mid-request.
	ConnWriteErr = "conn.write.err"
	// ShardDown is fired by the shard server's query handler: when it
	// triggers, the server drops the connection without replying, as a
	// crashed shard process would. The coordinator sees an abrupt EOF
	// and must retry or degrade.
	ShardDown = "shard.down"
)

// ErrInjectedDial is the error delivered by the ConnDialErr point.
var ErrInjectedDial = fmt.Errorf("fault: injected dial error")

// ErrInjectedWrite is the error delivered by the ConnWriteErr point.
var ErrInjectedWrite = fmt.Errorf("fault: injected connection write error")

// Conn wraps c with the ConnReadStall and ConnWriteErr points,
// counting one hit per Read/Write call. When no fault is armed at wrap
// time the original connection is returned unchanged (zero overhead).
func Conn(c net.Conn) net.Conn {
	if !Active() {
		return c
	}
	return &faultConn{Conn: c}
}

type faultConn struct{ net.Conn }

func (f *faultConn) Read(p []byte) (int, error) {
	if sp, ok := Fire(ConnReadStall); ok {
		time.Sleep(sp.Delay)
	}
	return f.Conn.Read(p)
}

func (f *faultConn) Write(p []byte) (int, error) {
	if _, ok := Fire(ConnWriteErr); ok {
		return 0, ErrInjectedWrite
	}
	return f.Conn.Write(p)
}
