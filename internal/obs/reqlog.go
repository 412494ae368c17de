package obs

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"sync"
	"time"
)

// RequestLogEntry is one request's structured log record: identity,
// outcome, the per-phase wall breakdown and the admission wait — the
// numbers needed to answer "what did this request cost and where"
// from the log line alone, with the trace ID linking to the full
// span tree in /debug/traces.
type RequestLogEntry struct {
	Time    time.Time
	TraceID TraceID
	Index   string
	Status  int
	Err     string
	Reads   int
	Mapped  int
	Bad     int

	Postings int64

	AdmissionWait time.Duration
	ReadWall      time.Duration
	MapWall       time.Duration
	WriteWall     time.Duration
	Duration      time.Duration
}

// reqLogJSON is the NDJSON wire shape of an entry (durations in
// integer nanoseconds, the trace ID in hex).
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

// RequestLog is the serving tier's sampled structured request log.
// Every entry lands in a bounded in-memory ring (served at
// /debug/requests); a sampled subset — plus every error and every
// slow request — is additionally emitted through the slog.Logger as
// one structured line. The split keeps production log volume
// proportional to errors rather than traffic while the ring keeps
// the full recent history inspectable.
type RequestLog struct {
	logger  *slog.Logger
	sampleN int
	slow    time.Duration

	mu   sync.Mutex
	cap  int
	buf  []RequestLogEntry
	next int
	seq  int64
}

// NewRequestLog creates a request log ringing the last capacity
// entries and emitting 1 in sampleN ok lines to logger (sampleN <= 1
// emits all; logger nil emits none — ring only). Entries with an
// error status or slower than slow are always emitted.
func NewRequestLog(logger *slog.Logger, sampleN, capacity int, slow time.Duration) *RequestLog {
	if capacity <= 0 {
		capacity = 256
	}
	if sampleN < 1 {
		sampleN = 1
	}
	return &RequestLog{logger: logger, sampleN: sampleN, slow: slow, cap: capacity}
}

// Record rings e and emits it through the logger when the sampling
// policy selects it. The caller's ctx is handed to the slog handler,
// which may carry request-scoped correlation values; Record itself
// does not block on it. Callers logging after the request is done
// should pass context.WithoutCancel of the request context rather
// than a detached Background.
func (l *RequestLog) Record(ctx context.Context, e RequestLogEntry) {
	l.mu.Lock()
	emit := false
	if l.logger != nil {
		switch {
		case e.Status >= 400 || e.Err != "":
			emit = true
		case l.slow > 0 && e.Duration >= l.slow:
			emit = true
		default:
			l.seq++
			emit = l.seq%int64(l.sampleN) == 0
		}
	}
	if len(l.buf) < l.cap {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.next] = e
		l.next = (l.next + 1) % l.cap
	}
	l.mu.Unlock()

	if emit {
		l.logger.LogAttrs(ctx, levelFor(e.Status), "map request",
			slog.String("trace_id", e.TraceID.String()),
			slog.String("index", e.Index),
			slog.Int("status", e.Status),
			slog.String("error", e.Err),
			slog.Int("reads", e.Reads),
			slog.Int("mapped", e.Mapped),
			slog.Int("bad_records", e.Bad),
			slog.Int64("postings_scanned", e.Postings),
			slog.Duration("admission_wait", e.AdmissionWait),
			slog.Duration("read_wall", e.ReadWall),
			slog.Duration("map_wall", e.MapWall),
			slog.Duration("write_wall", e.WriteWall),
			slog.Duration("duration", e.Duration),
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

// Len returns how many entries the ring currently retains.
func (l *RequestLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Snapshot returns the ringed entries oldest-first.
func (l *RequestLog) Snapshot() []RequestLogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]RequestLogEntry, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// WriteNDJSON renders the ringed entries oldest-first as one JSON
// object per line — the /debug/requests body.
func (l *RequestLog) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range l.Snapshot() {
		if err := enc.Encode(reqLogJSON{
			Time:            e.Time.Format(time.RFC3339Nano),
			TraceID:         e.TraceID.String(),
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
