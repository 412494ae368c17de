package sketch

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"repro/internal/kmer"
)

// Flat frozen-table payload: the serialized (JEMIDX06) form of a
// FrozenTable, laid out so the serving structures can be built over
// the raw bytes with zero copies — the flat payload IS the serving
// layout:
//
//	u32  trial count T
//	T ×  48-byte trial directory entry:
//	       u32 nwords   u32 npostings   u32 nbuckets   u32 shift
//	       u64 wordsOff u64 offsetsOff  u64 postingsOff u64 bucketsOff
//	8-aligned sections, offsets relative to the payload start:
//	       words     nwords   × u64
//	       offsets   nwords+1 × u32   (full array, leading 0 included)
//	       postings  npostings × {u32 subject, u32 anchor}
//	       buckets   nbuckets × u32   (the radix directory, serialized)
//
// Sections follow the directory in exactly that order, trial by trial,
// and every section offset is 8-byte aligned, so when the payload
// itself sits at an aligned address (JEMIDX06 page-aligns each shard
// in the file; heap buffers are allocator-aligned) a view can alias
// the words/offsets/postings/buckets arrays directly. On little-endian
// hosts a view therefore allocates nothing proportional to the table.
const (
	flatDirEntrySize = 48
	flatAlign        = 8
)

// flatTrialDir is one decoded directory entry.
type flatTrialDir struct {
	nwords    uint32
	npostings uint32
	nbuckets  uint32
	shift     uint32
	wordsOff  uint64
	offsets   uint64
	postings  uint64
	buckets   uint64
}

func align8(x int64) int64 { return (x + flatAlign - 1) &^ (flatAlign - 1) }

// flatLayout computes the directory and total payload size for this
// table.
func (ft *FrozenTable) flatLayout() ([]flatTrialDir, int64) {
	t := len(ft.trials)
	dirs := make([]flatTrialDir, t)
	off := align8(int64(4 + flatDirEntrySize*t))
	for i := range ft.trials {
		fb := &ft.trials[i]
		d := &dirs[i]
		d.nwords = uint32(len(fb.words))
		d.npostings = uint32(len(fb.postings))
		d.nbuckets = uint32(len(fb.buckets))
		d.shift = uint32(fb.shift)
		d.wordsOff = uint64(off)
		off += int64(len(fb.words)) * 8
		d.offsets = uint64(off)
		off = align8(off + int64(len(fb.offsets))*4)
		d.postings = uint64(off)
		off += int64(len(fb.postings)) * 8
		d.buckets = uint64(off)
		off = align8(off + int64(len(fb.buckets))*4)
	}
	return dirs, off
}

// EncodeFlat serializes the table into the flat payload layout,
// returning the backing buffer (alignment padding is zeroed).
func (ft *FrozenTable) EncodeFlat() []byte {
	dirs, size := ft.flatLayout()
	buf := make([]byte, size)
	le := binary.LittleEndian
	le.PutUint32(buf, uint32(len(ft.trials)))
	for i := range dirs {
		d := &dirs[i]
		p := 4 + flatDirEntrySize*i
		le.PutUint32(buf[p:], d.nwords)
		le.PutUint32(buf[p+4:], d.npostings)
		le.PutUint32(buf[p+8:], d.nbuckets)
		le.PutUint32(buf[p+12:], d.shift)
		le.PutUint64(buf[p+16:], d.wordsOff)
		le.PutUint64(buf[p+24:], d.offsets)
		le.PutUint64(buf[p+32:], d.postings)
		le.PutUint64(buf[p+40:], d.buckets)
	}
	for i := range ft.trials {
		fb := &ft.trials[i]
		d := &dirs[i]
		p := int(d.wordsOff)
		for _, w := range fb.words {
			le.PutUint64(buf[p:], uint64(w))
			p += 8
		}
		p = int(d.offsets)
		for _, off := range fb.offsets {
			le.PutUint32(buf[p:], uint32(off))
			p += 4
		}
		p = int(d.postings)
		for _, pp := range fb.postings {
			le.PutUint32(buf[p:], uint32(pp.Subject))
			le.PutUint32(buf[p+4:], uint32(pp.Anchor))
			p += 8
		}
		p = int(d.buckets)
		for _, b := range fb.buckets {
			le.PutUint32(buf[p:], uint32(b))
			p += 4
		}
	}
	return buf
}

// parseFlatDirs decodes and bounds-checks the payload directory: every
// section must be 8-aligned, lie inside the payload, and start at or
// after the end of the one before it (the order EncodeFlat lays them
// out in), so the sections of all trials together never claim more
// bytes than the payload holds. It does NOT validate section contents
// (validateFlatTrial does).
func parseFlatDirs(buf []byte) ([]flatTrialDir, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("sketch: flat payload too short (%d bytes)", len(buf))
	}
	le := binary.LittleEndian
	t := le.Uint32(buf)
	if t == 0 || t > 1<<20 {
		return nil, fmt.Errorf("sketch: implausible trial count %d", t)
	}
	if int64(len(buf)) < int64(4)+flatDirEntrySize*int64(t) {
		return nil, fmt.Errorf("sketch: flat payload truncated inside directory")
	}
	size := uint64(len(buf))
	next := uint64(4 + flatDirEntrySize*t)
	dirs := make([]flatTrialDir, t)
	for i := range dirs {
		p := 4 + flatDirEntrySize*i
		d := &dirs[i]
		d.nwords = le.Uint32(buf[p:])
		d.npostings = le.Uint32(buf[p+4:])
		d.nbuckets = le.Uint32(buf[p+8:])
		d.shift = le.Uint32(buf[p+12:])
		d.wordsOff = le.Uint64(buf[p+16:])
		d.offsets = le.Uint64(buf[p+24:])
		d.postings = le.Uint64(buf[p+32:])
		d.buckets = le.Uint64(buf[p+40:])
		if d.nwords > 1<<31 || d.npostings > 1<<31 || d.nbuckets > 1<<31 || d.shift > 64 {
			return nil, fmt.Errorf("sketch: flat trial %d has implausible counts", i)
		}
		// off comes straight from the file: compare it against the
		// payload size before any arithmetic, or off+bytes wraps for an
		// offset near 2^64 and the section "fits".
		for _, sec := range [4]struct{ off, bytes uint64 }{
			{d.wordsOff, uint64(d.nwords) * 8},
			{d.offsets, (uint64(d.nwords) + 1) * 4},
			{d.postings, uint64(d.npostings) * 8},
			{d.buckets, uint64(d.nbuckets) * 4},
		} {
			if sec.off%flatAlign != 0 || sec.off < next || sec.off > size || sec.bytes > size-sec.off {
				return nil, fmt.Errorf("sketch: flat trial %d sections misaligned, overlapping or outside the payload (%d bytes)", i, size)
			}
			next = sec.off + sec.bytes
		}
	}
	return dirs, nil
}

// validateFlatTrial enforces the invariants Lookup relies on — words
// strictly sorted, offsets monotone and ending at npostings, bucket
// bounds inside the word array — so a corrupt payload fails the load
// instead of panicking mid-query. The full pass costs one read of the
// sections, which the CRC verification pays anyway.
func validateFlatTrial(ti int, fb *frozenBin, np uint32) error {
	for i := 1; i < len(fb.words); i++ {
		if fb.words[i-1] >= fb.words[i] {
			return fmt.Errorf("sketch: flat trial %d words not strictly sorted", ti)
		}
	}
	if len(fb.offsets) != len(fb.words)+1 {
		return fmt.Errorf("sketch: flat trial %d has %d offsets for %d words", ti, len(fb.offsets), len(fb.words))
	}
	if fb.offsets[0] != 0 {
		return fmt.Errorf("sketch: flat trial %d offsets do not start at 0", ti)
	}
	for i := 1; i < len(fb.offsets); i++ {
		if fb.offsets[i] < fb.offsets[i-1] || uint32(fb.offsets[i]) > np {
			return fmt.Errorf("sketch: flat trial %d offsets not monotone", ti)
		}
	}
	if fb.offsets[len(fb.offsets)-1] != int32(np) {
		return fmt.Errorf("sketch: flat trial %d offsets end at %d, want %d", ti, fb.offsets[len(fb.offsets)-1], np)
	}
	if n := len(fb.buckets); n > 0 {
		if fb.buckets[0] != 0 || fb.buckets[n-1] != int32(len(fb.words)) {
			return fmt.Errorf("sketch: flat trial %d bucket bounds out of range", ti)
		}
		for i := 1; i < n; i++ {
			if fb.buckets[i] < fb.buckets[i-1] || int(fb.buckets[i]) > len(fb.words) {
				return fmt.Errorf("sketch: flat trial %d buckets not monotone", ti)
			}
		}
	} else if len(fb.words) > 0 {
		return fmt.Errorf("sketch: flat trial %d has words but no bucket directory", ti)
	}
	return nil
}

// FlatPayloadStats reads the trial and posting counts out of a flat
// payload's directory without building a table — the accounting peek
// a lazy (load-on-demand) shard uses before its first fault-in. The
// directory is bounds-checked but not checksum-verified; a corrupt
// payload either fails here or at fault-in, never silently.
func FlatPayloadStats(buf []byte) (trials, entries int, err error) {
	dirs, err := parseFlatDirs(buf)
	if err != nil {
		return 0, 0, err
	}
	for i := range dirs {
		entries += int(dirs[i].npostings)
	}
	return len(dirs), entries, nil
}

// hostLittleEndian reports whether this host matches the on-disk byte
// order; only then can a view alias the payload bytes directly.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ViewFlatFrozen builds a FrozenTable whose arrays alias buf — the one
// way a flat payload becomes a serving table, whether buf is a slice
// of an mmap'd index file (mapped = true: the table's bytes count as
// mapped, see MappedBytes) or a heap buffer holding the same bytes
// (mapped = false: they count as resident). buf must stay valid and
// immutable for the table's lifetime and must be 8-byte aligned; on
// big-endian hosts, or for an unaligned buffer, it falls back to the
// copying decoder — correctness is identical either way, only
// residency differs.
func ViewFlatFrozen(buf []byte, mapped bool) (*FrozenTable, error) {
	if !hostLittleEndian || len(buf) == 0 ||
		uintptr(unsafe.Pointer(&buf[0]))%flatAlign != 0 {
		return DecodeFlatFrozen(buf)
	}
	dirs, err := parseFlatDirs(buf)
	if err != nil {
		return nil, err
	}
	ft := &FrozenTable{trials: make([]frozenBin, len(dirs)), mapped: mapped}
	for ti := range dirs {
		d := &dirs[ti]
		fb := &ft.trials[ti]
		fb.shift = uint(d.shift)
		if d.nwords > 0 {
			fb.words = unsafe.Slice((*kmer.Word)(unsafe.Pointer(&buf[d.wordsOff])), d.nwords)
		}
		fb.offsets = unsafe.Slice((*int32)(unsafe.Pointer(&buf[d.offsets])), d.nwords+1)
		if d.npostings > 0 {
			fb.postings = unsafe.Slice((*Posting)(unsafe.Pointer(&buf[d.postings])), d.npostings)
		}
		if d.nbuckets > 0 {
			fb.buckets = unsafe.Slice((*int32)(unsafe.Pointer(&buf[d.buckets])), d.nbuckets)
		}
		if err := validateFlatTrial(ti, fb, d.npostings); err != nil {
			return nil, err
		}
		ft.entries += int(d.npostings)
	}
	return ft, nil
}

// DecodeFlatFrozen decodes a flat payload into an owned, heap-resident
// FrozenTable — the portable fallback for hosts and buffers where a
// view cannot alias the bytes.
func DecodeFlatFrozen(buf []byte) (*FrozenTable, error) {
	dirs, err := parseFlatDirs(buf)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	ft := &FrozenTable{trials: make([]frozenBin, len(dirs))}
	for ti := range dirs {
		d := &dirs[ti]
		fb := &ft.trials[ti]
		fb.shift = uint(d.shift)
		fb.words = make([]kmer.Word, d.nwords)
		for i := range fb.words {
			fb.words[i] = kmer.Word(le.Uint64(buf[d.wordsOff+uint64(i)*8:]))
		}
		fb.offsets = make([]int32, d.nwords+1)
		for i := range fb.offsets {
			fb.offsets[i] = int32(le.Uint32(buf[d.offsets+uint64(i)*4:]))
		}
		fb.postings = make([]Posting, d.npostings)
		for i := range fb.postings {
			p := d.postings + uint64(i)*8
			fb.postings[i] = Posting{
				Subject: int32(le.Uint32(buf[p:])),
				Anchor:  int32(le.Uint32(buf[p+4:])),
			}
		}
		fb.buckets = make([]int32, d.nbuckets)
		for i := range fb.buckets {
			fb.buckets[i] = int32(le.Uint32(buf[d.buckets+uint64(i)*4:]))
		}
		if d.nbuckets == 0 {
			fb.buckets = nil
		}
		if err := validateFlatTrial(ti, fb, d.npostings); err != nil {
			return nil, err
		}
		ft.entries += int(d.npostings)
	}
	return ft, nil
}
