package obs

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestServeEndpoints stands the side server up on an ephemeral port
// and checks every endpoint answers: the Prometheus exposition, the
// human statusz, and the pprof index/cmdline handlers.
func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jem_test_total", "a counter").Add(5)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	if body := get("/metrics"); !strings.Contains(body, "jem_test_total 5") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/metrics"); !strings.Contains(body, "go_goroutines") {
		t.Errorf("/metrics missing runtime gauges:\n%s", body)
	}
	if body := get("/statusz"); !strings.Contains(body, "jem_test_total") {
		t.Errorf("/statusz missing counter:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index looks wrong:\n%s", body[:min(len(body), 200)])
	}
	get("/debug/pprof/cmdline") // must simply answer 200
}

// TestServerCloseWaitsForServeGoroutine is the regression test for
// the unsupervised-goroutine fix: Close must not return until the
// side serve goroutine has exited, so a caller tearing down the
// process observes the listener fully released.
func TestServerCloseWaitsForServeGoroutine(t *testing.T) {
	fault.LeakCheck(t)
	s, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-s.done:
	default:
		t.Fatal("Close returned before the serve goroutine exited")
	}
}

// TestServerShutdownWaitsForServeGoroutine: the graceful path makes
// the same guarantee when the context allows it.
func TestServerShutdownWaitsForServeGoroutine(t *testing.T) {
	s, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case <-s.done:
	default:
		t.Fatal("Shutdown returned before the serve goroutine exited")
	}
}
