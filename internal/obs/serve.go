package obs

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
)

// Server is a live observability endpoint over one Registry.
type Server struct {
	lis net.Listener
	srv *http.Server
	// done closes when the serve goroutine exits, so Close/Shutdown
	// can wait for it instead of abandoning it mid-accept.
	done chan struct{}
}

// Serve exposes reg over HTTP on addr (e.g. ":9090" or
// "127.0.0.1:0") from a side goroutine and returns immediately.
//
//	/metrics        Prometheus text exposition
//	/statusz        human-readable table + span tree
//	/debug/pprof/*  CPU/heap/goroutine/... profiles
//
// It also registers scrape-time runtime gauges (goroutines, heap
// bytes, GC cycles) on reg. Close shuts the listener down.
func Serve(addr string, reg *Registry) (*Server, error) {
	mux := http.NewServeMux()
	Mount(mux, reg)

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{lis: lis, srv: &http.Server{Handler: mux}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(lis)
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.lis.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the server immediately (in-flight scrapes are cut) and
// waits for the serve goroutine to exit.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

// Shutdown stops the server gracefully: the listener closes at once
// but in-flight scrapes finish (or ctx expires, whichever is first).
// The run epilogue uses this so a scraper mid-collection at exit gets
// a complete response instead of a reset connection. The serve
// goroutine has exited by the time Shutdown returns without error.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	select {
	case <-s.done:
	case <-ctx.Done():
	}
	return err
}

// Mount registers the observability endpoints on an existing mux —
// the hook a daemon with its own HTTP surface (jem-serve) uses to
// carry /metrics, /statusz and /debug/pprof/* alongside its API,
// instead of running a second listener via Serve. It also installs the
// scrape-time runtime gauges on reg.
func Mount(mux *http.ServeMux, reg *Registry) {
	registerRuntimeGauges(reg)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.WriteTable(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// registerRuntimeGauges adds scrape-time process gauges so even an
// otherwise-empty registry (jem-bench) exposes something useful.
func registerRuntimeGauges(reg *Registry) {
	reg.GaugeFunc("go_goroutines", "number of live goroutines",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("go_heap_alloc_bytes", "bytes of allocated heap objects",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.GaugeFunc("go_gc_cycles_total", "completed GC cycles",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
}
