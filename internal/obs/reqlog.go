package obs

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"sync"
	"time"
)

// reqLogJSON is the /debug/requests wire shape of one request
// (durations in integer nanoseconds, the trace ID in hex).
type reqLogJSON struct {
	Time            string `json:"time"`
	TraceID         string `json:"trace_id"`
	Index           string `json:"index,omitempty"`
	Status          int    `json:"status"`
	Err             string `json:"error,omitempty"`
	Reads           int    `json:"reads"`
	Mapped          int    `json:"mapped"`
	Bad             int    `json:"bad_records,omitempty"`
	Postings        int64  `json:"postings_scanned"`
	AdmissionWaitNS int64  `json:"admission_wait_ns"`
	ReadWallNS      int64  `json:"read_wall_ns"`
	MapWallNS       int64  `json:"map_wall_ns"`
	WriteWallNS     int64  `json:"write_wall_ns"`
	DurationNS      int64  `json:"duration_ns"`
}

// RequestLog is the serving tier's structured request log. Every
// request's Trace lands in a bounded in-memory ring (served at
// /debug/requests, without its span tree, which the trace ring keeps
// under its own policy) and, when a logger is set, is emitted through
// it as one structured line.
type RequestLog struct {
	logger *slog.Logger

	mu     sync.Mutex
	recent ring[Trace]
}

// NewRequestLog creates a request log ringing the last capacity
// requests and emitting every one to logger (nil emits none: ring
// only).
func NewRequestLog(logger *slog.Logger, capacity int) *RequestLog {
	return &RequestLog{logger: logger, recent: newRing[Trace](capacity)}
}

// Record rings a copy of t without its span tree and emits it through
// the logger. The caller's ctx is handed to the slog handler, which
// may carry request-scoped correlation values; Record itself does not
// block on it. Callers logging after the request is done should pass
// context.WithoutCancel of the request context rather than a detached
// Background.
func (l *RequestLog) Record(ctx context.Context, t *Trace) {
	rec := *t
	rec.Root = nil
	l.mu.Lock()
	l.recent.push(rec)
	l.mu.Unlock()

	if l.logger != nil {
		l.logger.LogAttrs(ctx, levelFor(t.Status), "map request",
			slog.String("trace_id", t.ID.String()),
			slog.String("index", t.Index),
			slog.Int("status", t.Status),
			slog.String("error", t.Err),
			slog.Int("reads", t.Reads),
			slog.Int("mapped", t.Mapped),
			slog.Int("bad_records", t.Bad),
			slog.Int64("postings_scanned", t.Postings),
			slog.Duration("admission_wait", t.AdmissionWait),
			slog.Duration("read_wall", t.ReadWall),
			slog.Duration("map_wall", t.MapWall),
			slog.Duration("write_wall", t.WriteWall),
			slog.Duration("duration", t.Duration),
		)
	}
}

// levelFor maps an HTTP status to a log level: 5xx are errors, 4xx
// warnings, everything else info.
func levelFor(status int) slog.Level {
	switch {
	case status >= 500:
		return slog.LevelError
	case status >= 400:
		return slog.LevelWarn
	default:
		return slog.LevelInfo
	}
}

// WriteNDJSON renders the ringed requests oldest-first as one JSON
// object per line — the /debug/requests body.
func (l *RequestLog) WriteNDJSON(w io.Writer) error {
	l.mu.Lock()
	recent := l.recent.snapshot()
	l.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, e := range recent {
		if err := enc.Encode(reqLogJSON{
			Time:            e.Start.Format(time.RFC3339Nano),
			TraceID:         e.ID.String(),
			Index:           e.Index,
			Status:          e.Status,
			Err:             e.Err,
			Reads:           e.Reads,
			Mapped:          e.Mapped,
			Bad:             e.Bad,
			Postings:        e.Postings,
			AdmissionWaitNS: e.AdmissionWait.Nanoseconds(),
			ReadWallNS:      e.ReadWall.Nanoseconds(),
			MapWallNS:       e.MapWall.Nanoseconds(),
			WriteWallNS:     e.WriteWall.Nanoseconds(),
			DurationNS:      e.Duration.Nanoseconds(),
		}); err != nil {
			return err
		}
	}
	return nil
}
