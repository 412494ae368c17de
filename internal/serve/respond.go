package serve

import (
	"bytes"
	"fmt"
	"net/http"
)

// deferredWriter decouples "the mapping stream writes rows" from "the
// HTTP status is committed". Rows buffer in memory until either the
// run finishes (the whole response is then sent atomically, which is
// what lets a failed run — deadline exceeded, injected write fault,
// worker panic under the fail policy — return a clean error status
// with no partial rows) or the buffer crosses commitLimit (a large
// result set then streams with 200 and periodic flushes, bounding
// server memory; a failure after that point truncates the body and
// appends a "# jem-serve: error:" comment line so clients can tell a
// truncated table from a complete one).
type deferredWriter struct {
	hw          http.ResponseWriter
	commitLimit int
	buf         bytes.Buffer
	committed   bool
	sinceFlush  int
	writeErr    error
}

// flushEvery bounds how many bytes a committed (streaming) response
// accumulates before the chunk is pushed to the client.
const flushEvery = 32 << 10

func newDeferredWriter(w http.ResponseWriter, commitLimit int) *deferredWriter {
	return &deferredWriter{hw: w, commitLimit: commitLimit}
}

func (d *deferredWriter) Write(p []byte) (int, error) {
	if d.writeErr != nil {
		return 0, d.writeErr
	}
	if !d.committed {
		d.buf.Write(p)
		if d.buf.Len() >= d.commitLimit {
			d.commit(http.StatusOK)
		}
		return len(p), nil
	}
	n, err := d.hw.Write(p)
	d.writeErr = err
	d.sinceFlush += n
	if err == nil && d.sinceFlush >= flushEvery {
		d.flush()
	}
	return n, err
}

// commit sends the status line and everything buffered so far.
func (d *deferredWriter) commit(status int) {
	if d.committed {
		return
	}
	d.committed = true
	d.hw.WriteHeader(status)
	if d.buf.Len() > 0 {
		_, d.writeErr = d.hw.Write(d.buf.Bytes())
		d.buf.Reset()
		d.flush()
	}
}

func (d *deferredWriter) flush() {
	d.sinceFlush = 0
	if f, ok := d.hw.(http.Flusher); ok {
		f.Flush()
	}
}

// finish ends a successful run: commit 200 if still buffered (setting
// fn's headers first — stats are only knowable at the end, and headers
// can only be set pre-commit) and flush the remainder.
func (d *deferredWriter) finish(setHeaders func(http.Header)) error {
	if !d.committed {
		if setHeaders != nil {
			setHeaders(d.hw.Header())
		}
		d.commit(http.StatusOK)
	}
	d.flush()
	return d.writeErr
}

// fail ends a failed run. Pre-commit the buffered rows are dropped and
// a clean error status goes out (the partial-free contract); post-
// commit the body is already streaming, so the best that can be done
// is a trailing comment line marking the table as truncated.
func (d *deferredWriter) fail(status int, msg string) {
	if !d.committed {
		d.buf.Reset()
		d.hw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		http.Error(d.hw, msg, status)
		d.committed = true
		return
	}
	fmt.Fprintf(d.hw, "# jem-serve: error: %s\n", msg)
	d.flush()
}
