package sketch

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"repro/internal/kmer"
)

// Flat table payload: the bytes a FrozenTable is a view over — what
// Builder.Freeze lays out, what a JEMIDX06 file stores per shard and
// what an index open maps. The flat payload IS the serving layout:
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
// in the file; the builder and the loader allocate aligned buffers) a
// view aliases the words/offsets/postings/buckets arrays directly and
// allocates nothing proportional to the table. All integers are
// little-endian, and so must the host be.
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

// put writes the directory entry into its 48-byte slot.
func (d *flatTrialDir) put(slot []byte) {
	le := binary.LittleEndian
	le.PutUint32(slot, d.nwords)
	le.PutUint32(slot[4:], d.npostings)
	le.PutUint32(slot[8:], d.nbuckets)
	le.PutUint32(slot[12:], d.shift)
	le.PutUint64(slot[16:], d.wordsOff)
	le.PutUint64(slot[24:], d.offsets)
	le.PutUint64(slot[32:], d.postings)
	le.PutUint64(slot[40:], d.buckets)
}

// alignedBytes allocates n zeroed bytes at an 8-aligned address (the
// language guarantees that of a []uint64, not of a []byte).
func alignedBytes(n int64) []byte {
	if n == 0 {
		return nil
	}
	backing := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), n)
}

// parseFlatDirs decodes and bounds-checks the payload directory: every
// section must be 8-aligned, lie inside the payload, and start at or
// after the end of the one before it (the order the builder lays them
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
		if d.nwords > maxFlatCount || d.npostings > maxFlatCount || d.nbuckets > maxFlatCount || d.shift > 64 {
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

// hostLittleEndian reports whether this host matches the payload's
// byte order; a view aliases the bytes, so nothing else can serve them.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ViewFlatFrozen builds a FrozenTable whose arrays alias buf — the one
// way flat bytes become a table, whether buf is what the builder just
// filled, a heap buffer an index was read into (mapped = false: the
// table's bytes count as resident) or a slice of an mmap'd index file
// (mapped = true: they count as mapped, see MappedBytes). buf must
// stay valid and immutable for the table's lifetime. A buffer that is
// not 8-byte aligned is copied once into one that is, and the copy —
// resident, whatever buf was — is viewed. Big-endian hosts are
// refused: the payload is little-endian and there is no decoder.
func ViewFlatFrozen(buf []byte, mapped bool) (*FrozenTable, error) {
	if !hostLittleEndian {
		return nil, fmt.Errorf("sketch: flat table payloads are little-endian and served in place; big-endian hosts are not supported")
	}
	if len(buf) > 0 && uintptr(unsafe.Pointer(&buf[0]))%flatAlign != 0 {
		aligned := alignedBytes(int64(len(buf)))
		copy(aligned, buf)
		return ViewFlatFrozen(aligned, false)
	}
	dirs, err := parseFlatDirs(buf)
	if err != nil {
		return nil, err
	}
	ft := &FrozenTable{trials: make([]frozenBin, len(dirs)), payload: buf, mapped: mapped}
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
