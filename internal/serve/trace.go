package serve

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/obs"
)

// inflightEntry is one row of the live in-flight table: what the
// request is doing and since when. The table is snapshotted into
// flight captures so a stuck request shows up in every capture taken
// while it is stuck.
type inflightEntry struct {
	index string
	start time.Time
}

// reqObs carries one map request's observability state from the first
// line of handleMap to its deferred finish: the request's one record,
// t, filled in as the handler learns the index, the admission wait,
// the outcome and the run stats. Every exit path of the handler flows
// through finish, so every request — including 404s, 429s and
// deadline kills — lands in the trace ring and the request log
// exactly once.
type reqObs struct {
	s *Server
	// ctx is the request context stripped of its cancellation
	// (finish runs after the handler returns, when the request
	// context may already be canceled) but keeping its values, so
	// the request-log emission stays correlated with the request.
	ctx context.Context
	t   *obs.Trace
	// timed marks the paths whose latency feeds the request histogram:
	// admitted requests (success, stream error, queued-past-deadline) —
	// not pre-admission rejections, which would pollute the mapping
	// latency distribution with parameter-validation noise.
	timed bool
	done  bool
}

// beginRequest opens the observability scope for one map request:
// resolve or mint the trace ID, answer it in the X-JEM-Trace-Id
// response header immediately (so every status — 404, 429, 504 —
// carries it), start the root span and register the request in the
// in-flight table.
func (s *Server) beginRequest(w http.ResponseWriter, r *http.Request) *reqObs {
	id := obs.NewTraceID()
	if h := r.Header.Get("X-JEM-Trace-Id"); h != "" {
		if pid, err := obs.ParseTraceID(h); err == nil && !pid.IsZero() {
			id = pid
		}
	}
	w.Header().Set("X-JEM-Trace-Id", id.String())
	ro := &reqObs{
		s:   s,
		ctx: context.WithoutCancel(r.Context()),
		t:   &obs.Trace{ID: id, Root: obs.NewSpan("request"), Status: http.StatusOK, Start: time.Now()},
	}
	s.inflightMu.Lock()
	s.inflightTab[id] = inflightEntry{start: ro.t.Start}
	s.inflightMu.Unlock()
	return ro
}

// setIndex records which index the request resolved to, on the span
// and in the in-flight table.
func (ro *reqObs) setIndex(name string) {
	ro.t.Index = name
	ro.t.Root.SetAttr("index", name)
	ro.s.inflightMu.Lock()
	if e, ok := ro.s.inflightTab[ro.t.ID]; ok {
		e.index = name
		ro.s.inflightTab[ro.t.ID] = e
	}
	ro.s.inflightMu.Unlock()
}

// setStats records the run's numbers for the request log.
func (ro *reqObs) setStats(st jem.Stats) {
	t := ro.t
	t.Reads, t.Mapped, t.Bad, t.Postings = st.Reads, st.Mapped, st.BadRecords, st.PostingsScanned
	t.ReadWall, t.MapWall, t.WriteWall = st.ReadWall, st.MapWall, st.WriteWall
}

// fail records the request's terminal status and error message for
// the trace and the request log (it does not write the response).
func (ro *reqObs) fail(status int, msg string) {
	ro.t.Status = status
	ro.t.Err = msg
}

// httpError is fail + http.Error: the one-liner for the handler's
// early-exit paths. The X-JEM-Trace-Id header set in beginRequest
// survives http.Error, so even rejections carry their trace identity.
func (ro *reqObs) httpError(w http.ResponseWriter, msg string, status int) {
	ro.fail(status, msg)
	http.Error(w, msg, status)
}

// finish closes the request's observability scope: end the root span,
// offer the record to the tail-sampling trace ring and the request
// log, observe latency on timed paths, and trigger the flight recorder
// when the request crossed the slow threshold. Deferred from
// handleMap; runs exactly once.
func (ro *reqObs) finish() {
	if ro.done {
		return
	}
	ro.done = true
	s, t := ro.s, ro.t

	s.inflightMu.Lock()
	delete(s.inflightTab, t.ID)
	s.inflightMu.Unlock()

	t.Duration = t.Root.End()
	t.Root.SetAttr("status", t.Status)
	s.traces.Add(t)
	s.reqlog.Record(ro.ctx, t)
	if ro.timed {
		s.met.latency.Observe(t.Duration.Seconds())
	}
	if s.flight.Exceeded(t.Duration) {
		s.flight.Capture(t, []obs.Attr{
			{Key: "inflight", Value: s.adm.InFlight()},
			{Key: "queued", Value: s.adm.Queued()},
			{Key: "inflight_table", Value: s.inflightTable()},
		})
	}
}

// inflightTable renders the live in-flight table as one line per
// request, oldest first — the "what else was running" context a
// flight capture carries.
func (s *Server) inflightTable() string {
	s.inflightMu.Lock()
	type row struct {
		id    obs.TraceID
		entry inflightEntry
	}
	rows := make([]row, 0, len(s.inflightTab))
	for id, e := range s.inflightTab {
		rows = append(rows, row{id, e})
	}
	s.inflightMu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].entry.start.Before(rows[j].entry.start) })
	var b strings.Builder
	for _, r := range rows {
		idx := r.entry.index
		if idx == "" {
			idx = "?"
		}
		fmt.Fprintf(&b, "%s index=%s age=%v\n", r.id, idx,
			time.Since(r.entry.start).Round(time.Millisecond))
	}
	return b.String()
}

// handleTraces serves the retained request traces: text span trees by
// default, NDJSON with ?format=json, a single trace with ?id=.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	asJSON := q.Get("format") == "json"
	if idStr := q.Get("id"); idStr != "" {
		id, err := obs.ParseTraceID(idStr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		t := s.traces.Find(id)
		if t == nil {
			http.Error(w, "trace not retained (sampled out, evicted, or never seen)", http.StatusNotFound)
			return
		}
		if asJSON {
			w.Header().Set("Content-Type", "application/json")
			_ = t.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = t.WriteText(w)
		return
	}
	if asJSON {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = s.traces.WriteNDJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.traces.WriteText(w)
}

// handleFlight serves the flight recorder's snapshots: text by
// default, NDJSON with ?format=json.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = s.flight.WriteNDJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.flight.WriteText(w)
}

// handleRequests serves the ringed request log as NDJSON, newest
// entries last.
func (s *Server) handleRequests(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = s.reqlog.WriteNDJSON(w)
}
