package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// topKeys returns the top-level keys of one JSON object in wire order.
func topKeys(t *testing.T, line string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object (%v): %s", err, line)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("reading key: %v: %s", err, line)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatalf("reading value of %v: %v: %s", tok, err, line)
		}
	}
	return keys
}

// without returns keys minus the omitted ones, order kept.
func without(keys []string, omitted ...string) []string {
	return slices.DeleteFunc(slices.Clone(keys), func(k string) bool { return slices.Contains(omitted, k) })
}

// ndjsonLines splits an NDJSON body into its lines.
func ndjsonLines(body string) []string {
	return strings.Split(strings.TrimSuffix(body, "\n"), "\n")
}

// TestDebugWireShapes pins what the /debug/* endpoints emit, key for
// key and in wire order: the 14 keys of a /debug/requests line (three
// of them omitted when empty), the /debug/traces text header and JSON
// keys, and the /debug/flight header and JSON keys. Dashboards and
// scripts parse these; how the server retains requests must not move
// them.
func TestDebugWireShapes(t *testing.T) {
	w := getWorld(t)
	_, ts := newTestServer(t, serve.Config{SlowRequest: time.Microsecond})

	// Between them the three requests set and omit every optional key:
	// a skipped bad record (bad_records, no error), a deadline kill
	// (error, no bad_records) and an unknown index (no index).
	reqs := []struct{ id, url string }{
		{"5ba9e5000000a001", ts.URL + "/v1/map/asm?on_bad_record=skip"},
		{"5ba9e5000000a002", ts.URL + "/v1/map/asm?timeout=1ns"},
		{"5ba9e5000000a003", ts.URL + "/v1/map/nosuch"},
	}
	body := append([]byte("@broken\nACGT\n+\nII\n"), w.fastq...)
	for _, r := range reqs {
		req, err := http.NewRequest("POST", r.url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-JEM-Trace-Id", r.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}

	t.Run("requests", func(t *testing.T) {
		all := []string{"time", "trace_id", "index", "status", "error", "reads", "mapped",
			"bad_records", "postings_scanned", "admission_wait_ns", "read_wall_ns",
			"map_wall_ns", "write_wall_ns", "duration_ns"}
		want := [][]string{
			without(all, "error"),
			without(all, "bad_records"),
			without(all, "index", "bad_records"),
		}
		_, nd := get(t, ts.URL+"/debug/requests")
		lines := ndjsonLines(nd)
		if len(lines) != len(want) {
			t.Fatalf("/debug/requests has %d lines, want %d:\n%s", len(lines), len(want), nd)
		}
		for i, line := range lines {
			if got := topKeys(t, line); !slices.Equal(got, want[i]) {
				t.Errorf("line %d keys:\n got %v\nwant %v", i, got, want[i])
			}
			if !strings.Contains(line, `"trace_id":"`+reqs[i].id+`"`) {
				t.Errorf("line %d is not request %s: %s", i, reqs[i].id, line)
			}
		}
	})

	t.Run("traces", func(t *testing.T) {
		_, text := get(t, ts.URL+"/debug/traces")
		// Every request here is slow or an error, so the policy keeps all three.
		if !strings.HasPrefix(text, "# 3 traces retained of 3 seen (3 kept by policy)\n") {
			t.Errorf("/debug/traces header:\n%.200s", text)
		}
		head := regexp.MustCompile(`(?m)^trace ([0-9a-f]{16})  status=(\d+)  dur=\S+  kept=(slow|error)  start=\S+$`)
		if got := head.FindAllStringSubmatch(text, -1); len(got) != 3 || got[0][1] != reqs[0].id || got[0][3] != "slow" {
			t.Errorf("/debug/traces trace headers = %q:\n%s", got, text)
		}

		_, nd := get(t, ts.URL+"/debug/traces?format=json")
		lines := ndjsonLines(nd)
		if len(lines) != 3 {
			t.Fatalf("/debug/traces?format=json has %d lines, want 3:\n%s", len(lines), nd)
		}
		keys := []string{"trace_id", "status", "error", "start", "duration_ns", "kept", "root"}
		for i, line := range lines {
			want := keys
			if i == 0 {
				want = without(keys, "error")
			}
			if got := topKeys(t, line); !slices.Equal(got, want) {
				t.Errorf("trace line %d keys:\n got %v\nwant %v", i, got, want)
			}
		}
		var first struct{ Root json.RawMessage }
		if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
			t.Fatal(err)
		}
		if got, want := topKeys(t, string(first.Root)), []string{"name", "duration_ns", "attrs", "children"}; !slices.Equal(got, want) {
			t.Errorf("root span keys = %v, want %v", got, want)
		}
	})

	t.Run("flight", func(t *testing.T) {
		_, text := get(t, ts.URL+"/debug/flight")
		head := regexp.MustCompile(`^# (\d+) flight snapshots retained \((\d+) captured, \d+ suppressed by rate limit, threshold 1µs\)\n`)
		m := head.FindStringSubmatch(text)
		if m == nil || m[1] == "0" || m[1] != m[2] {
			t.Fatalf("/debug/flight header:\n%.300s", text)
		}
		snap := regexp.MustCompile(`(?m)^=== flight \S+  trace=` + reqs[0].id + `  dur=\S+\nrequest exceeded slow threshold 1µs \(took \S+\)\ninflight: \d+\nqueued: \d+\ninflight_table: .*\n(?:.*\n)*?--- span tree\nrequest .*\n(?:.*\n)*?--- goroutines\ngoroutine profile:`)
		if !snap.MatchString(text) {
			t.Errorf("/debug/flight snapshot layout:\n%.2000s", text)
		}

		_, nd := get(t, ts.URL+"/debug/flight?format=json")
		want := []string{"time", "trace_id", "reason", "duration_ns", "attrs", "span_tree", "goroutines"}
		if got := topKeys(t, ndjsonLines(nd)[0]); !slices.Equal(got, want) {
			t.Errorf("flight line keys:\n got %v\nwant %v", got, want)
		}
	})
}
