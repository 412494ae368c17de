package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/minimizer"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sketch"
)

// JEMIDX06 is the index format — the only one:
//
//	magic "JEMIDX06"
//	manifest: params (6×u64), subjects, shard count (u32),
//	          payload page size (u32),
//	          per shard {file offset u64, payload length u64, CRC32 u32}
//	manifest CRC32 (u32, over magic+manifest, footer not self-included)
//	per-shard flat payloads (FrozenTable.Payload), each starting at
//	its directory offset, page-aligned, gaps zero-filled
//
// Every payload is the flat serving layout at a page-aligned file
// offset, so the bytes on disk are the bytes that serve: a reader
// either maps the file read-only and aliases each shard's arrays in
// place (demand paging per shard, physical pages shared between every
// process mapping the file) or reads each payload into a heap buffer
// and aliases that. Both are little-endian binary, stable across
// platforms, with the manifest and every payload checksummed, so shards
// verify in parallel and a load can pinpoint WHICH shard is corrupt.
var indexMagic = [8]byte{'J', 'E', 'M', 'I', 'D', 'X', '0', '6'}

const (
	indexPageSize = 4096
	// maxShardPayload bounds a single shard's serialized size as
	// declared by an untrusted manifest.
	maxShardPayload = 1 << 36
)

func alignPage(x int64) int64 { return (x + indexPageSize - 1) &^ (indexPageSize - 1) }

// ErrIndexChecksum marks an index whose manifest or shard payload does
// not match its recorded checksum, or ends before the manifest says it
// should — the file was corrupted after it was written. Callers
// holding the original contigs can detect this with errors.Is and
// rebuild the index from scratch.
var ErrIndexChecksum = errors.New("core: index checksum mismatch")

// checkMagic accepts the current format and names the retired ones:
// they are not migrated, the index is rebuilt from the contigs.
func checkMagic(magic [8]byte) error {
	switch string(magic[:]) {
	case string(indexMagic[:]):
		return nil
	case "JEMIDX02", "JEMIDX03", "JEMIDX04", "JEMIDX05":
		return fmt.Errorf("core: index format %s is no longer supported; rebuild the index with -save-index", magic[:])
	}
	return fmt.Errorf("core: not a JEM index (magic %q)", magic[:])
}

// WriteIndex serializes a sealed mapper — sketch parameters, subject
// metadata and the shard tables — so an index built once can be reused
// across runs (jem-mapper -save-index / -load-index). A sealed table
// is already a view over its flat payloads, so the write is the
// manifest plus those bytes; the file ends at the last payload byte (no
// trailing pad), and the zero-filled alignment gaps cost nothing once
// mapped — untouched pages are never faulted in. An unsealed mapper has
// no serving table to write and returns an error.
func (m *Mapper) WriteIndex(w io.Writer) error {
	if m.sharded == nil {
		return fmt.Errorf("core: mapper has no sealed table to write (seal it first)")
	}
	n := m.sharded.NumShards()
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = m.sharded.Shard(i).Payload()
	}
	var metaBuf bytes.Buffer
	if err := m.writeIndexMeta(&metaBuf); err != nil {
		return err
	}
	// magic + meta + shard count + page size + n×{off,len,crc} + footer
	manifestLen := int64(8) + int64(metaBuf.Len()) + 4 + 4 + int64(n)*20 + 4
	offs := make([]uint64, n)
	off := alignPage(manifestLen)
	for i := range payloads {
		offs[i] = uint64(off)
		off += int64(len(payloads[i]))
		if i < n-1 {
			off = alignPage(off)
		}
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	// Everything before the footer feeds the manifest checksum; the
	// MultiWriter keeps hashing off the encoder code paths entirely.
	h := crc32.NewIEEE()
	hw := io.MultiWriter(bw, h)
	if _, err := hw.Write(indexMagic[:]); err != nil {
		return err
	}
	if _, err := hw.Write(metaBuf.Bytes()); err != nil {
		return err
	}
	if err := binary.Write(hw, binary.LittleEndian, uint32(n)); err != nil {
		return err
	}
	if err := binary.Write(hw, binary.LittleEndian, uint32(indexPageSize)); err != nil {
		return err
	}
	for i, pl := range payloads {
		if err := binary.Write(hw, binary.LittleEndian, offs[i]); err != nil {
			return err
		}
		if err := binary.Write(hw, binary.LittleEndian, uint64(len(pl))); err != nil {
			return err
		}
		if err := binary.Write(hw, binary.LittleEndian, crc32.ChecksumIEEE(pl)); err != nil {
			return err
		}
	}
	// The manifest footer is NOT part of its own checksum.
	if err := binary.Write(bw, binary.LittleEndian, h.Sum32()); err != nil {
		return err
	}
	var zeros [indexPageSize]byte
	pos := manifestLen
	for i, pl := range payloads {
		for pad := int64(offs[i]) - pos; pad > 0; {
			k := min(pad, indexPageSize)
			if _, err := bw.Write(zeros[:k]); err != nil {
				return err
			}
			pad -= k
			pos += k
		}
		if _, err := bw.Write(pl); err != nil {
			return err
		}
		pos += int64(len(pl))
	}
	return bw.Flush()
}

// writeIndexMeta encodes the params and subject metadata that open the
// manifest.
func (m *Mapper) writeIndexMeta(w io.Writer) error {
	p := m.sk.Params()
	for _, v := range []uint64{
		uint64(p.K), uint64(p.W), uint64(p.T), uint64(p.L),
		uint64(p.Seed), uint64(p.Order),
	} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(m.subjects))); err != nil {
		return err
	}
	for _, s := range m.subjects {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(s.Name))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, s.Name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(s.Length)); err != nil {
			return err
		}
	}
	return nil
}

// WriteIndexFile writes the index to path atomically: the bytes go to
// a temporary file in the same directory, are synced to stable
// storage, and only then renamed over path. A crash, disk-full error
// or kill mid-write leaves either the old file or no file — never a
// partial index that a later run would try to serve.
func (m *Mapper) WriteIndexFile(path string) (retErr error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if retErr != nil {
			_ = os.Remove(tmp.Name())
		}
	}()
	// fault.Writer lets tests inject ENOSPC/stalls into the index write
	// path; it is the identity when no fault is armed.
	if err := m.WriteIndex(fault.Writer(tmp)); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// IndexByteFlip corrupts the fully written temp file before the
	// rename — the scenario the checksums exist to catch.
	if _, ok := fault.Fire(fault.IndexByteFlip); ok {
		if err := fault.FlipFileByte(tmp.Name()); err != nil {
			return err
		}
	}
	return os.Rename(tmp.Name(), path)
}

// readIndexMeta decodes the params and subject metadata that open the
// manifest. It builds no sketcher: the loaders do that only once every
// kept payload has confirmed the trial count, and the fleet open only
// once the fleet's identity matched, so what an open allocates before
// then stays proportional to its input. It reads exact lengths only (no
// lookahead), so it is safe to run through a checksumming TeeReader.
func readIndexMeta(r io.Reader) (sketch.Params, []SubjectMeta, error) {
	var raw [6]uint64
	for i := range raw {
		if err := binary.Read(r, binary.LittleEndian, &raw[i]); err != nil {
			return sketch.Params{}, nil, fmt.Errorf("core: reading index params: %w", err)
		}
	}
	p := sketch.Params{
		K: int(raw[0]), W: int(raw[1]), T: int(raw[2]), L: int(raw[3]),
		Seed: int64(raw[4]),
	}
	p.Order = minimizer.Ordering(raw[5])
	if err := p.Validate(); err != nil {
		return p, nil, fmt.Errorf("core: index carries invalid params: %w", err)
	}
	var nsubj uint32
	if err := binary.Read(r, binary.LittleEndian, &nsubj); err != nil {
		return p, nil, err
	}
	if nsubj > 1<<28 {
		return p, nil, fmt.Errorf("core: implausible subject count %d", nsubj)
	}
	subjects := make([]SubjectMeta, 0, min(nsubj, 1<<16))
	for i := uint32(0); i < nsubj; i++ {
		var nameLen uint32
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return p, nil, err
		}
		if nameLen > 1<<16 {
			return p, nil, fmt.Errorf("core: implausible subject name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return p, nil, err
		}
		var length uint32
		if err := binary.Read(r, binary.LittleEndian, &length); err != nil {
			return p, nil, err
		}
		subjects = append(subjects, SubjectMeta{Name: string(name), Length: int32(length)})
	}
	return p, subjects, nil
}

// shardedManifest is a decoded, checksum-verified manifest: the params
// and subject metadata, the shard directory (absolute file offset,
// length and CRC per payload), and the manifest checksum — which
// doubles as the index fingerprint a distributed fleet agrees on (see
// IndexMeta).
type shardedManifest struct {
	p           sketch.Params
	subjects    []SubjectMeta
	offs        []uint64
	lens        []uint64
	crcs        []uint32
	end         int64 // file offset just past the footer
	manifestCRC uint32
}

// meta projects the manifest onto its distributed-serving identity.
func (man *shardedManifest) meta() IndexMeta {
	return IndexMeta{
		Shards:      len(man.lens),
		T:           man.p.T,
		NumSubjects: len(man.subjects),
		ManifestCRC: man.manifestCRC,
	}
}

// countingReader counts the bytes consumed from the underlying reader
// so the manifest reader can report where in the file the manifest
// ends (the directory offsets are absolute and must land past it).
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// readManifest checks the magic and decodes the manifest, reading
// through a checksumming tee and verifying the footer before any
// directory entry is trusted. On return the stream is positioned just
// past the manifest footer.
func readManifest(br *bufio.Reader) (*shardedManifest, error) {
	cr := &countingReader{r: br}
	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading index magic: %w", err)
	}
	if err := checkMagic(magic); err != nil {
		return nil, err
	}
	h := crc32.NewIEEE()
	_, _ = h.Write(magic[:])
	tee := io.TeeReader(cr, h)
	p, subjects, err := readIndexMeta(tee)
	if err != nil {
		return nil, err
	}
	var nshards, page uint32
	if err := binary.Read(tee, binary.LittleEndian, &nshards); err != nil {
		return nil, fmt.Errorf("core: reading shard count: %w", err)
	}
	if nshards == 0 || nshards > sketch.MaxShards {
		return nil, fmt.Errorf("core: implausible shard count %d", nshards)
	}
	if err := binary.Read(tee, binary.LittleEndian, &page); err != nil {
		return nil, fmt.Errorf("core: reading payload page size: %w", err)
	}
	if page == 0 || page&(page-1) != 0 || page > 1<<22 {
		return nil, fmt.Errorf("core: implausible payload page size %d", page)
	}
	man := &shardedManifest{
		p: p, subjects: subjects,
		offs: make([]uint64, nshards),
		lens: make([]uint64, nshards),
		crcs: make([]uint32, nshards),
	}
	for i := range man.lens {
		var entry [20]byte // {offset u64, length u64, CRC32 u32}
		if _, err := io.ReadFull(tee, entry[:]); err != nil {
			return nil, fmt.Errorf("core: reading shard %d directory entry: %w", i, err)
		}
		man.offs[i] = binary.LittleEndian.Uint64(entry[0:])
		man.lens[i] = binary.LittleEndian.Uint64(entry[8:])
		man.crcs[i] = binary.LittleEndian.Uint32(entry[16:])
		// Bounding both keeps every later offset+length sum from wrapping.
		if man.lens[i] > maxShardPayload || man.offs[i] > 1<<62 {
			return nil, fmt.Errorf("core: implausible shard %d payload extent (offset %d, length %d)", i, man.offs[i], man.lens[i])
		}
	}
	man.manifestCRC = h.Sum32()
	var footer uint32
	// The footer is read off cr directly: counted, but it must not feed
	// the hash.
	if err := binary.Read(cr, binary.LittleEndian, &footer); err != nil {
		return nil, fmt.Errorf("core: reading manifest checksum: %w", err)
	}
	if man.manifestCRC != footer {
		return nil, fmt.Errorf("%w: manifest computed %08x, footer says %08x", ErrIndexChecksum, man.manifestCRC, footer)
	}
	man.end = cr.n
	prev := uint64(man.end)
	for i, off := range man.offs {
		if off%8 != 0 {
			return nil, fmt.Errorf("core: shard %d payload offset %d is not 8-aligned", i, off)
		}
		if off < prev {
			return nil, fmt.Errorf("core: shard %d payload offset %d overlaps preceding data ending at %d", i, off, prev)
		}
		prev = off + man.lens[i]
	}
	return man, nil
}

// loadedIndex is what the loader hands back: the verified manifest
// and one verified table per kept shard (nil for an unkept one).
type loadedIndex struct {
	man    *shardedManifest
	tables []*sketch.FrozenTable
}

// loadIndex is the one index loader. What varies between a full load,
// a shard-server subset load, a heap open and a mapped open is only
// where a shard's bytes come from and which shards are kept:
//
//   - data != nil: the index is data, a read-only mapping of the file,
//     and a kept payload is a slice of it (served in place).
//   - data == nil: the index is read off r in file order, each kept
//     payload into a heap buffer of exactly its manifest length
//     (readPayload); unkept payloads and alignment gaps are skipped
//     without allocation. size is the total index size when known (a
//     file) and -1 for an unbounded stream.
//
// keep == nil keeps every shard. Either way a payload then becomes a
// serving table by the same step — verify its CRC, view its bytes
// (viewShard), check its trial count against the manifest — run in
// parallel across shards before loadIndex returns. sp, when non-nil,
// gets one child span per kept shard. Every corruption path reports an
// error wrapping ErrIndexChecksum (so load-or-rebuild callers can
// detect it) and names the shard it hit.
func loadIndex(r io.Reader, size int64, data []byte, keep func(shard int) bool, sp *obs.Span) (*loadedIndex, error) {
	if data != nil {
		r, size = bytes.NewReader(data), int64(len(data))
	}
	br := bufio.NewReaderSize(r, 1<<16)
	man, err := readManifest(br)
	if err != nil {
		return nil, err
	}
	n := len(man.lens)
	if size >= 0 {
		for i := range man.lens {
			if end := man.offs[i] + man.lens[i]; end > uint64(size) {
				return nil, fmt.Errorf("core: shard %d payload ends at %d but the index holds %d bytes: %w",
					i, end, size, ErrIndexChecksum)
			}
		}
	}
	payloads := make([][]byte, n)
	pos, kept := man.end, 0
	for i := range payloads {
		off, length := int64(man.offs[i]), int64(man.lens[i])
		if keep != nil && !keep(i) {
			continue
		}
		kept++
		if data != nil {
			payloads[i] = data[off : off+length]
			continue
		}
		if _, err := io.CopyN(io.Discard, br, off-pos); err != nil {
			return nil, fmt.Errorf("core: seeking shard %d payload: %w (%w)", i, err, ErrIndexChecksum)
		}
		if payloads[i], err = readPayload(br, length, size >= 0); err != nil {
			return nil, fmt.Errorf("core: reading shard %d payload: %w (%w)", i, err, ErrIndexChecksum)
		}
		pos = off + length
	}
	if kept == 0 {
		return nil, fmt.Errorf("core: shard selection keeps none of %d shards", n)
	}
	ld := &loadedIndex{man: man, tables: make([]*sketch.FrozenTable, n)}
	errs := make([]error, n)
	parallel.ForEach(n, 0, func(i int) {
		if payloads[i] == nil {
			return
		}
		build := func() {
			ld.tables[i], errs[i] = viewShard(i, payloads[i], man.crcs[i], data != nil, man.p.T)
		}
		if sp != nil {
			sp.Time(fmt.Sprintf("shard%d", i), build)
		} else {
			build()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ld, nil
}

// readPayload reads exactly n bytes into a buffer of exactly n bytes —
// a view pins its payload for the table's lifetime, so no slack may
// ride along. When the manifest has been validated against the index
// size the buffer is allocated at once; from an unbounded stream it
// grows with the bytes actually read (doubling, clipped to n), so a
// lying length ends in a truncation error, not a giant allocation.
func readPayload(r io.Reader, n int64, sizeChecked bool) ([]byte, error) {
	const firstChunk = 1 << 20
	have := n
	if !sizeChecked && have > firstChunk {
		have = firstChunk
	}
	buf := make([]byte, have)
	for filled := int64(0); ; {
		k, err := io.ReadFull(r, buf[filled:])
		filled += int64(k)
		if err != nil {
			return nil, fmt.Errorf("payload truncated (%d of %d bytes): %w", filled, n, err)
		}
		if filled == n {
			return buf, nil
		}
		grown := make([]byte, min(2*filled, n))
		copy(grown, buf)
		buf = grown
	}
}

// viewShard is the one step that turns payload bytes into a serving
// table: verify them against the manifest CRC, build a view over them
// (see sketch.ViewFlatFrozen; mapped says whether they are a slice of
// the file mapping or a heap buffer), and check the table carries the
// manifest's trial count.
func viewShard(i int, payload []byte, wantCRC uint32, mapped bool, trials int) (*sketch.FrozenTable, error) {
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("%w: shard %d computed %08x, manifest says %08x", ErrIndexChecksum, i, got, wantCRC)
	}
	ft, err := sketch.ViewFlatFrozen(payload, mapped)
	if err != nil {
		return nil, fmt.Errorf("core: decoding shard %d: %w", i, err)
	}
	if ft.T() != trials {
		return nil, fmt.Errorf("core: shard %d has %d trials, manifest says %d", i, ft.T(), trials)
	}
	return ft, nil
}

// mapper assembles a full load into a sealed mapper and reports what
// the load did with memory.
func (ld *loadedIndex) mapper() (*Mapper, MemoryInfo, error) {
	sf, err := sketch.NewShardedFrozen(ld.tables)
	if err != nil {
		return nil, MemoryInfo{}, fmt.Errorf("core: assembling sharded table: %w", err)
	}
	m, err := NewSealed(ld.man.p, ld.man.subjects, sf)
	if err != nil {
		return nil, MemoryInfo{}, err
	}
	return m, MemoryInfo{Resident: sf.ResidentBytes(), Mapped: sf.MappedBytes()}, nil
}

// ReadIndexObserved deserializes a mapper previously written by
// WriteIndex into heap memory. The manifest and every shard payload
// are checksum-verified (a mismatch returns an error wrapping
// ErrIndexChecksum); the result is a sealed mapper. The per-shard
// loads are timed under sp (one child span per shard); sp may be nil.
func ReadIndexObserved(r io.Reader, sp *obs.Span) (*Mapper, error) {
	ld, err := loadIndex(r, -1, nil, nil, sp)
	if err != nil {
		return nil, err
	}
	m, _, err := ld.mapper()
	return m, err
}
