package fault

import (
	"errors"
	"net"
	"testing"
	"time"
)

func TestParseNetworkPoints(t *testing.T) {
	defer Reset()
	err := Parse("conn.dial.err:times=2; conn.read.stall:delay=5ms ;conn.write.err:after=1;shard.down")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ConnDialErr, ConnReadStall, ConnWriteErr, ShardDown} {
		if points[name] == nil {
			t.Errorf("%s not armed", name)
		}
	}
	if sp, ok := Fire(ConnReadStall); !ok || sp.Delay != 5*time.Millisecond {
		t.Fatalf("conn.read.stall: ok=%v delay=%v", ok, sp.Delay)
	}
	if _, ok := Fire(ConnWriteErr); ok {
		t.Fatal("after=1 fired on first hit")
	}
	if _, ok := Fire(ConnWriteErr); !ok {
		t.Fatal("after=1 did not fire on second hit")
	}
	Fire(ConnDialErr)
	Fire(ConnDialErr)
	if _, ok := Fire(ConnDialErr); ok {
		t.Fatal("times=2 fired a third time")
	}
}

func TestConnWrapper(t *testing.T) {
	defer Reset()
	a, b := net.Pipe()
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	// Disarmed: Conn must return its argument unchanged.
	if c := Conn(a); c != net.Conn(a) {
		t.Fatal("disarmed Conn wrapped anyway")
	}

	// Write error: injected without touching the wire.
	Set(ConnWriteErr, Spec{})
	c := Conn(a)
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("err=%v, want ErrInjectedWrite", err)
	}
	Reset()

	// Read stall: the read still succeeds but only after Spec.Delay.
	Set(ConnReadStall, Spec{Delay: 30 * time.Millisecond})
	c = Conn(a)
	go func() { _, _ = b.Write([]byte("y")) }()
	start := time.Now()
	buf := make([]byte, 1)
	n, err := c.Read(buf)
	if err != nil || n != 1 || buf[0] != 'y' {
		t.Fatalf("read: n=%d err=%v buf=%q", n, err, buf[:n])
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("read returned after %v, want >= 30ms stall", d)
	}
}
