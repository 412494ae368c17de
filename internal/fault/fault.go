// Package fault is the repository's deterministic fault-injection
// registry: named injection points compiled into production code paths
// (the streaming pipeline, the index writer) that stay dormant until a
// test — or the JEM_FAULTS environment variable — arms them.
//
// Every fault is deterministic: a point triggers after a fixed number
// of hits (Spec.After) and for a fixed number of times (Spec.Times),
// so a failing test replays identically. There is no randomness and no
// timing dependence beyond Spec.Delay, which only ever adds latency.
//
// The disarmed fast path is one atomic load (Active), so leaving the
// injection points compiled into release binaries costs nothing
// measurable.
//
// Arming from the environment:
//
//	JEM_FAULTS="worker.panic:after=2;writer.slow:delay=10ms,times=100"
//
// is a semicolon-separated list of point[:key=value,...] specs, parsed
// at process start. Tests arm points programmatically with Set and
// must Reset when done (the registry is process-global).
package fault

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The injection points wired into the serving pipeline. Each name is
// the stable identifier used in JEM_FAULTS and in Set calls.
const (
	// ReaderShort makes the wrapped input stream report EOF early — a
	// truncated download or chopped file.
	ReaderShort = "reader.short"
	// ReaderErr makes the wrapped input stream fail with ErrInjectedRead
	// — a dropped NFS mount or dying disk mid-read.
	ReaderErr = "reader.err"
	// WriterENOSPC makes the wrapped output stream fail with a
	// disk-full error (wraps syscall.ENOSPC).
	WriterENOSPC = "writer.enospc"
	// WriterSlow stalls each wrapped write by Spec.Delay — a congested
	// pipe or throttled volume.
	WriterSlow = "writer.slow"
	// WorkerPanic panics inside a MapStream worker goroutine, proving
	// the recover-to-batch-error conversion.
	WorkerPanic = "worker.panic"
	// IndexByteFlip flips one byte of a fully written index temp file
	// before it is renamed into place — on-disk corruption the index
	// checksums must catch at load time.
	IndexByteFlip = "index.byteflip"
)

// Spec configures one armed injection point.
type Spec struct {
	// After is the number of Fire calls that pass through before the
	// point starts triggering (0 = trigger on the first call).
	After int
	// Times bounds how many times the point triggers before disarming
	// itself (0 = every call once reached).
	Times int
	// Delay is the stall injected by latency points (WriterSlow).
	Delay time.Duration
}

type point struct {
	spec Spec
	hits int // Fire calls seen so far
	done int // triggers delivered so far
}

var (
	mu     sync.Mutex
	points map[string]*point
	armed  atomic.Bool
)

func init() {
	if env := os.Getenv("JEM_FAULTS"); env != "" {
		if err := Parse(env); err != nil {
			// A malformed fault spec means the test harness is broken;
			// fail loudly rather than silently running fault-free.
			panic(fmt.Sprintf("fault: bad JEM_FAULTS: %v", err))
		}
	}
}

// Active reports whether any injection point is armed. It is the cheap
// guard production code uses before paying for wrapping or Fire calls.
func Active() bool { return armed.Load() }

// Set arms the named point with the given spec, replacing any previous
// arming (and resetting its counters).
func Set(name string, s Spec) {
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]*point)
	}
	points[name] = &point{spec: s}
	armed.Store(true)
}

// Reset disarms every point. Tests that Set must defer Reset.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = nil
	armed.Store(false)
}

// Fire records one hit on the named point and reports whether the
// fault triggers on this hit, returning the point's Spec so latency
// points can read their Delay. Disarmed points never trigger.
func Fire(name string) (Spec, bool) {
	if !armed.Load() {
		return Spec{}, false
	}
	mu.Lock()
	defer mu.Unlock()
	p, ok := points[name]
	if !ok {
		return Spec{}, false
	}
	p.hits++
	if p.hits <= p.spec.After {
		return Spec{}, false
	}
	if p.spec.Times > 0 && p.done >= p.spec.Times {
		return Spec{}, false
	}
	p.done++
	return p.spec, true
}

// Parse arms points from a JEM_FAULTS-format string:
// "name[:key=value[,key=value...]][;name...]" with keys after (int),
// times (int) and delay (time.Duration).
func Parse(s string) error {
	for _, item := range strings.Split(s, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, args, _ := strings.Cut(item, ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return fmt.Errorf("empty fault name in %q", item)
		}
		var spec Spec
		if args != "" {
			for _, kv := range strings.Split(args, ",") {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return fmt.Errorf("fault %s: %q is not key=value", name, kv)
				}
				switch strings.TrimSpace(key) {
				case "after":
					n, err := strconv.Atoi(strings.TrimSpace(val))
					if err != nil {
						return fmt.Errorf("fault %s: after=%q: %v", name, val, err)
					}
					spec.After = n
				case "times":
					n, err := strconv.Atoi(strings.TrimSpace(val))
					if err != nil {
						return fmt.Errorf("fault %s: times=%q: %v", name, val, err)
					}
					spec.Times = n
				case "delay":
					d, err := time.ParseDuration(strings.TrimSpace(val))
					if err != nil {
						return fmt.Errorf("fault %s: delay=%q: %v", name, val, err)
					}
					spec.Delay = d
				default:
					return fmt.Errorf("fault %s: unknown key %q", name, key)
				}
			}
		}
		Set(name, spec)
	}
	return nil
}

// FlipFileByte flips one bit of the first nonzero byte at or past the
// middle of the file at path — the IndexByteFlip corruption. The file
// size is unchanged, so only a content check (an index checksum) can
// notice. Zero bytes are skipped because the out-of-core index layout
// zero-pads between page-aligned payloads, and a flipped pad byte is
// semantically invisible — not the corruption this fault exists to
// model.
func FlipFileByte(path string) (retErr error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		return fmt.Errorf("fault: cannot corrupt empty file %s", path)
	}
	off := st.Size() / 2
	var b [1]byte
	for {
		if _, err := f.ReadAt(b[:], off); err != nil {
			return err
		}
		if b[0] != 0 || off == st.Size()-1 {
			break
		}
		off++
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		return err
	}
	return nil
}

// ErrInjectedRead is the error delivered by the ReaderErr point.
var ErrInjectedRead = fmt.Errorf("fault: injected read error")

// ErrNoSpace is the disk-full error delivered by the WriterENOSPC
// point; it wraps syscall.ENOSPC so errors.Is sees the real errno.
var ErrNoSpace = fmt.Errorf("fault: injected write failure: %w", syscall.ENOSPC)

// Reader wraps r with the ReaderShort and ReaderErr points, counting
// one hit per Read call. When no fault is armed at wrap time the
// original reader is returned unchanged (zero overhead).
func Reader(r io.Reader) io.Reader {
	if !Active() {
		return r
	}
	return &faultReader{r: r}
}

type faultReader struct{ r io.Reader }

func (f *faultReader) Read(p []byte) (int, error) {
	if _, ok := Fire(ReaderShort); ok {
		return 0, io.EOF
	}
	if _, ok := Fire(ReaderErr); ok {
		return 0, ErrInjectedRead
	}
	return f.r.Read(p)
}

// Writer wraps w with the WriterENOSPC and WriterSlow points, counting
// one hit per Write call. When no fault is armed at wrap time the
// original writer is returned unchanged.
func Writer(w io.Writer) io.Writer {
	if !Active() {
		return w
	}
	return &faultWriter{w: w}
}

type faultWriter struct{ w io.Writer }

func (f *faultWriter) Write(p []byte) (int, error) {
	if sp, ok := Fire(WriterSlow); ok {
		time.Sleep(sp.Delay)
	}
	if _, ok := Fire(WriterENOSPC); ok {
		return 0, ErrNoSpace
	}
	return f.w.Write(p)
}
