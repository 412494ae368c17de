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

// writeIndex encodes a sealed mapper — sketch parameters, subject
// metadata and the shard tables — for WriteIndexFile. A sealed table
// is already a view over its flat payloads, so the write is the
// manifest plus those bytes; the file ends at the last payload byte (no
// trailing pad), and the zero-filled alignment gaps cost nothing once
// mapped — untouched pages are never faulted in. An unsealed mapper has
// no serving table to write and returns an error.
func (m *Mapper) writeIndex(w io.Writer) error {
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

// WriteIndexFile saves the index, so that an index built once serves
// many runs (jem-mapper -save-index / -load-index). The write is
// atomic: the bytes go to a temporary file in the same directory, are
// synced to stable storage, and only then renamed over path. A crash,
// disk-full error or kill mid-write leaves either the old file or no
// file — never a partial index that a later run would try to serve.
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
	if err := m.writeIndex(fault.Writer(tmp)); err != nil {
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
// then stays proportional to its input: size, the index's length,
// bounds the subject table it reserves (an entry takes at least 8
// bytes) and every name it reads. It reads exact lengths only (no
// lookahead), so it is safe to run through a checksumming TeeReader.
func readIndexMeta(r io.Reader, size int64) (sketch.Params, []SubjectMeta, error) {
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
	subjects := make([]SubjectMeta, 0, min(int64(nsubj), size/8))
	for i := uint32(0); i < nsubj; i++ {
		var nameLen uint32
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return p, nil, err
		}
		if nameLen > 1<<16 || int64(nameLen) > size {
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

// readManifest checks the magic and decodes the manifest of the index
// r holds in its first size bytes, reading through a checksumming tee
// and verifying the footer before any directory entry is trusted.
func readManifest(r io.ReaderAt, size int64) (*shardedManifest, error) {
	sr := io.NewSectionReader(r, 0, size)
	br := bufio.NewReaderSize(sr, int(min(size, 1<<16)))
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading index magic: %w", err)
	}
	if err := checkMagic(magic); err != nil {
		return nil, err
	}
	h := crc32.NewIEEE()
	_, _ = h.Write(magic[:])
	tee := io.TeeReader(br, h)
	p, subjects, err := readIndexMeta(tee, size)
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
	// The footer is read off br directly: it must not feed the hash.
	if err := binary.Read(br, binary.LittleEndian, &footer); err != nil {
		return nil, fmt.Errorf("core: reading manifest checksum: %w", err)
	}
	if man.manifestCRC != footer {
		return nil, fmt.Errorf("%w: manifest computed %08x, footer says %08x", ErrIndexChecksum, man.manifestCRC, footer)
	}
	read, _ := sr.Seek(0, io.SeekCurrent)
	man.end = read - int64(br.Buffered())
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

// loadIndex is the one index loader. The index is a file whose size is
// known, and every shard's extent is checked against that size before
// anything is allocated for it. What varies between a full load, a
// shard-server subset load, a heap open and a mapped open is only
// where a shard's bytes come from and which shards are kept:
//
//   - mapping != nil: the index is mapping, a read-only mapping of the
//     file (r and size are ignored), and a kept payload is a slice of
//     it, served in place.
//   - mapping == nil: the index is the first size bytes of r, and a
//     kept payload is read with one ReadAt at its manifest offset into
//     a heap buffer of exactly its length. Unkept payloads and
//     alignment gaps are never read.
//
// keep == nil keeps every shard. Either way a payload then becomes a
// serving table by the same step — fetch it, verify its CRC, view its
// bytes (viewShard), check its trial count against the manifest — run
// in parallel across the kept shards before loadIndex returns. sp, when
// non-nil, gets one child span per kept shard. Every corruption path
// reports an error wrapping ErrIndexChecksum (so load-or-rebuild
// callers can detect it) and names the shard it hit.
func loadIndex(r io.ReaderAt, size int64, mapping []byte, keep func(shard int) bool, sp *obs.Span) (*loadedIndex, error) {
	if mapping != nil {
		r, size = bytes.NewReader(mapping), int64(len(mapping))
	}
	man, err := readManifest(r, size)
	if err != nil {
		return nil, err
	}
	n := len(man.lens)
	var kept []int
	for i := range man.lens {
		if end := man.offs[i] + man.lens[i]; end > uint64(size) {
			return nil, fmt.Errorf("core: shard %d payload ends at %d but the index holds %d bytes: %w",
				i, end, size, ErrIndexChecksum)
		}
		if keep == nil || keep(i) {
			kept = append(kept, i)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("core: shard selection keeps none of %d shards", n)
	}
	ld := &loadedIndex{man: man, tables: make([]*sketch.FrozenTable, n)}
	errs := make([]error, n)
	parallel.ForEach(len(kept), 0, func(k int) {
		i := kept[k]
		load := func() { ld.tables[i], errs[i] = loadShard(r, mapping, man, i) }
		if sp != nil {
			sp.Time(fmt.Sprintf("shard%d", i), load)
		} else {
			load()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ld, nil
}

// loadShard fetches shard i's payload — a slice of mapping, or one
// ReadAt of r — and turns it into a serving table (viewShard).
func loadShard(r io.ReaderAt, mapping []byte, man *shardedManifest, i int) (*sketch.FrozenTable, error) {
	off, length := int64(man.offs[i]), int64(man.lens[i])
	if mapping != nil {
		return viewShard(i, mapping[off:off+length], man.crcs[i], true, man.p.T)
	}
	// A view pins its payload for the table's lifetime, so no slack may
	// ride along: the buffer is exactly the payload.
	payload := make([]byte, length)
	if n, err := r.ReadAt(payload, off); n < len(payload) {
		return nil, fmt.Errorf("core: reading shard %d payload: %w (%w)", i, err, ErrIndexChecksum)
	}
	return viewShard(i, payload, man.crcs[i], false, man.p.T)
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
