package serve

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

// TestRequestSpansEnded drives one mapped request and one refused
// before admission, and requires every span of both kept traces to be
// ended: the request root, which begins in beginRequest and ends in
// finish, and the mapped request's admission child.
func TestRequestSpansEnded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	contig := make([]byte, 6000)
	for i := range contig {
		contig[i] = "ACGT"[rng.Intn(4)]
	}
	m, err := jem.NewMapper([]jem.Record{{ID: "c0", Seq: contig}}, jem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{SlowRequest: time.Nanosecond}) // every trace is kept
	s.AddIndex("asm", m)
	read := string(contig[1000:4000])
	body := "@r0\n" + read + "\n+\n" + strings.Repeat("I", len(read)) + "\n"
	for path, want := range map[string]int{"/v1/map/asm": http.StatusOK, "/v1/map/nosuch": http.StatusNotFound} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("POST %s: status %d, want %d", path, rec.Code, want)
		}
	}
	traces := s.traces.Snapshot()
	if len(traces) != 2 {
		t.Fatalf("%d traces kept, want 2", len(traces))
	}
	var check func(sp *obs.Span)
	check = func(sp *obs.Span) {
		if !sp.Ended() {
			t.Errorf("span %s left open", sp.Name())
		}
		for _, c := range sp.Children() {
			check(c)
		}
	}
	admitted := false
	for _, tr := range traces {
		check(tr.Root)
		for _, c := range tr.Root.Children() {
			admitted = admitted || c.Name() == "admission"
		}
	}
	if !admitted {
		t.Error("no kept trace has an admission span")
	}
}
