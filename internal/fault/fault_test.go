package fault

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestFireAfterTimes(t *testing.T) {
	defer Reset()
	Set("p", Spec{After: 2, Times: 3})
	var fired []bool
	for i := 0; i < 8; i++ {
		_, ok := Fire("p")
		fired = append(fired, ok)
	}
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("hit %d: fired=%v want %v (all: %v)", i+1, fired[i], want[i], fired)
		}
	}
}

func TestFireUnlimitedTimes(t *testing.T) {
	defer Reset()
	Set("p", Spec{After: 1})
	if _, ok := Fire("p"); ok {
		t.Fatal("fired before After was reached")
	}
	for i := 0; i < 5; i++ {
		if _, ok := Fire("p"); !ok {
			t.Fatalf("hit %d after threshold did not fire", i)
		}
	}
}

func TestActiveAndReset(t *testing.T) {
	defer Reset()
	if Active() {
		t.Fatal("registry armed before any Set")
	}
	Set("a", Spec{})
	Set("b", Spec{})
	if !Active() || points["a"] == nil {
		t.Fatal("Set did not arm the registry")
	}
	Reset()
	if Active() || points["b"] != nil {
		t.Fatal("Reset left the registry armed")
	}
	if _, ok := Fire("b"); ok {
		t.Fatal("disarmed point fired")
	}
}

func TestParse(t *testing.T) {
	defer Reset()
	err := Parse("worker.panic:after=2,times=1; writer.slow:delay=10ms ;reader.err")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{WorkerPanic, WriterSlow, ReaderErr} {
		if points[name] == nil {
			t.Errorf("%s not armed", name)
		}
	}
	if _, ok := Fire(WorkerPanic); ok {
		t.Fatal("after=2 fired on first hit")
	}
	Fire(WorkerPanic)
	if sp, ok := Fire(WorkerPanic); !ok || sp.Times != 1 {
		t.Fatalf("third hit: ok=%v spec=%+v", ok, sp)
	}
	if sp, ok := Fire(WriterSlow); !ok || sp.Delay != 10*time.Millisecond {
		t.Fatalf("writer.slow: ok=%v delay=%v", ok, sp.Delay)
	}
}

func TestParseErrors(t *testing.T) {
	defer Reset()
	for _, bad := range []string{
		"p:after=x",
		"p:delay=fast",
		"p:bogus=1",
		"p:after",
		":after=1",
	} {
		if err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestReaderWrappers(t *testing.T) {
	defer Reset()
	// Disarmed: Reader must return its argument unchanged.
	src := strings.NewReader("hello")
	if r := Reader(src); r != io.Reader(src) {
		t.Fatal("disarmed Reader wrapped anyway")
	}
	// Short read: EOF after one Read call.
	Set(ReaderShort, Spec{After: 1})
	r := Reader(io.MultiReader(strings.NewReader("aaaa"), strings.NewReader("bbbb")))
	buf := make([]byte, 4)
	if n, err := r.Read(buf); err != nil || n != 4 {
		t.Fatalf("first read: n=%d err=%v", n, err)
	}
	if _, err := r.Read(buf); err != io.EOF {
		t.Fatalf("second read: err=%v, want injected EOF", err)
	}
	Reset()
	// Read error.
	Set(ReaderErr, Spec{})
	r = Reader(strings.NewReader("aaaa"))
	if _, err := r.Read(buf); !errors.Is(err, ErrInjectedRead) {
		t.Fatalf("err=%v, want ErrInjectedRead", err)
	}
}

func TestWriterWrappers(t *testing.T) {
	defer Reset()
	var dst bytes.Buffer
	if w := Writer(&dst); w != io.Writer(&dst) {
		t.Fatal("disarmed Writer wrapped anyway")
	}
	Set(WriterENOSPC, Spec{After: 1})
	w := Writer(&dst)
	if _, err := w.Write([]byte("row1\n")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	_, err := w.Write([]byte("row2\n"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err=%v, want ENOSPC", err)
	}
	if dst.String() != "row1\n" {
		t.Fatalf("dst=%q", dst.String())
	}
}

func TestFlipFileByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	orig := []byte("0123456789")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := FlipFileByte(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("size changed: %d -> %d", len(orig), len(got))
	}
	if bytes.Equal(got, orig) {
		t.Fatal("file unchanged")
	}
	diff := 0
	for i := range got {
		if got[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes changed, want exactly 1", diff)
	}
}
