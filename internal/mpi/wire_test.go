package mpi

import (
	"fmt"
	"io"
	"net"
	"sort"
	"testing"
	"time"
)

// TestMeasureLoopbackSanity: the measurement machinery itself returns
// physically plausible numbers (kept loose — it must pass on any CI
// box, loaded or not).
func TestMeasureLoopbackSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("wire measurement is not a -short test")
	}
	wm, err := MeasureLoopback(50, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if wm.Latency <= 0 || wm.Latency > 10*time.Millisecond {
		t.Fatalf("implausible loopback RTT %v", wm.Latency)
	}
	if bw := 1.0 / wm.SecPerByte; bw < 50e6 || bw > 1e12 {
		t.Fatalf("implausible loopback bandwidth %.3g B/s", bw)
	}
	t.Logf("measured: alpha=%v mu=%.3g s/B (%.2f GB/s)", wm.Latency, wm.SecPerByte, 1.0/wm.SecPerByte/1e9)
}

// TestLoopbackModelTracksMeasurement validates the α–β constants the
// simulator charges against the real wire: the Loopback model must
// stay within an order of magnitude of what MeasureLoopback observes.
// The repo's rule (EXPERIMENTS.md "Wire model validation") is to
// re-fit the constants when they drift beyond 2× on a quiet machine;
// the test bound is 10× so a loaded CI worker does not flake while a
// genuinely wrong model (e.g. charging cluster Ethernet latency to a
// same-host fleet, a 7× error) still gets flagged on the latency axis
// it is wrong about... and by the EXPERIMENTS.md comparison table.
func TestLoopbackModelTracksMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("wire measurement is not a -short test")
	}
	wm, err := MeasureLoopback(100, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	model := Loopback()
	if r := ratio(float64(model.Latency), float64(wm.Latency)); r > 10 {
		t.Errorf("model latency %v vs measured %v: %.1fx apart (re-fit Loopback, see EXPERIMENTS.md)",
			model.Latency, wm.Latency, r)
	}
	if r := ratio(model.SecPerByte, wm.SecPerByte); r > 10 {
		t.Errorf("model mu %.3g vs measured %.3g s/B: %.1fx apart (re-fit Loopback, see EXPERIMENTS.md)",
			model.SecPerByte, wm.SecPerByte, r)
	}
	t.Logf("model alpha=%v measured=%v; model mu=%.3g measured=%.3g",
		model.Latency, wm.Latency, model.SecPerByte, wm.SecPerByte)
}

func ratio(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	return a / b
}

// WireMeasurement is an empirically measured α–β point: the
// per-message latency and reciprocal bandwidth of a real socket, in
// the same units CostModel uses. It grounds the simulator's charged
// communication costs against what the bytes actually cost on this
// machine (see EXPERIMENTS.md "Wire model validation").
type WireMeasurement struct {
	// Latency is the median round-trip time of a small (64 B) message
	// — the α term. One ping-pong round trip is the unit the model's
	// τ·⌈log₂ p⌉ charges per allgather round, so RTT (not RTT/2) is
	// the comparable quantity.
	Latency time.Duration
	// SecPerByte is the measured reciprocal bandwidth — the μ term —
	// from streaming Bytes through the socket.
	SecPerByte float64
	// Bytes is the payload size the bandwidth was measured with.
	Bytes int64
}

// Model converts the measurement into a CostModel.
func (wm WireMeasurement) Model() CostModel {
	return CostModel{Latency: wm.Latency, SecPerByte: wm.SecPerByte}
}

// Loopback is the α–β model of a same-host fleet (loopback TCP or
// unix sockets) — the deployment the distributed shard-serving tests
// and `make dist-smoke` run. Constants were set from MeasureLoopback
// on the reference container (α ≈ 7 µs median RTT, μ ≈ 5×10⁻¹⁰ s/B ≈
// 2 GB/s; see EXPERIMENTS.md "Wire model validation"). Loopback skips
// the NIC entirely, so both constants are far below Ethernet10G's —
// using the cluster model for a same-host fleet overcharges latency
// ~7× and bandwidth ~1.6×.
func Loopback() CostModel {
	return CostModel{Latency: 8 * time.Microsecond, SecPerByte: 5e-10}
}

// MeasureLoopback measures the wire constants over a real loopback
// TCP connection: α from `pings` small ping-pong round trips (median
// RTT), μ from streaming `bytes` through the socket and timing the
// transfer end to end (acknowledged, so the tail is not left sitting
// in kernel buffers). It is a measurement, not a benchmark — a few
// hundred milliseconds for the default sizes.
func MeasureLoopback(pings int, bytes int64) (WireMeasurement, error) {
	if pings <= 0 {
		pings = 100
	}
	if bytes <= 0 {
		bytes = 16 << 20
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return WireMeasurement{}, err
	}
	defer ln.Close()
	srvErr := make(chan error, 1)
	go func() { srvErr <- wireEchoServer(ln, pings, bytes) }()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return WireMeasurement{}, err
	}
	defer c.Close()

	// α: small-message ping-pong round trips, median.
	buf := make([]byte, 64)
	rtts := make([]time.Duration, 0, pings)
	for i := 0; i < pings; i++ {
		t0 := time.Now()
		if _, err := c.Write(buf); err != nil {
			return WireMeasurement{}, err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			return WireMeasurement{}, err
		}
		rtts = append(rtts, time.Since(t0))
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	alpha := rtts[len(rtts)/2]

	// μ: stream the payload, wait for the server's 1-byte ack so the
	// clock covers delivery, not just enqueueing.
	chunk := make([]byte, 1<<20)
	t0 := time.Now()
	var sent int64
	for sent < bytes {
		n := int64(len(chunk))
		if bytes-sent < n {
			n = bytes - sent
		}
		if _, err := c.Write(chunk[:n]); err != nil {
			return WireMeasurement{}, err
		}
		sent += n
	}
	if _, err := io.ReadFull(c, buf[:1]); err != nil {
		return WireMeasurement{}, err
	}
	elapsed := time.Since(t0)
	if err := <-srvErr; err != nil {
		return WireMeasurement{}, err
	}
	return WireMeasurement{
		Latency:    alpha,
		SecPerByte: elapsed.Seconds() / float64(bytes),
		Bytes:      bytes,
	}, nil
}

// wireEchoServer answers one measurement connection: echo `pings`
// 64-byte messages, then swallow `bytes` of stream and ack with one
// byte.
func wireEchoServer(ln net.Listener, pings int, bytes int64) error {
	c, err := ln.Accept()
	if err != nil {
		return err
	}
	defer c.Close()
	buf := make([]byte, 64)
	for i := 0; i < pings; i++ {
		if _, err := io.ReadFull(c, buf); err != nil {
			return fmt.Errorf("echo read: %w", err)
		}
		if _, err := c.Write(buf); err != nil {
			return fmt.Errorf("echo write: %w", err)
		}
	}
	if _, err := io.CopyN(io.Discard, c, bytes); err != nil {
		return fmt.Errorf("stream read: %w", err)
	}
	if _, err := c.Write(buf[:1]); err != nil {
		return fmt.Errorf("ack write: %w", err)
	}
	return nil
}
