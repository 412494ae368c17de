package sketch

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/kmer"
)

// FrozenTable is the read-only form of the sketch table used after the
// gather step: per trial, a sorted unique word array with a flat
// posting array indexed by prefix offsets. It matches the paper's
// picture of S_global as "T lists" more closely than a hash map, and
// it can be built from the allgathered payloads by a k-way merge in
// O(entries · log p) without any hashing — which is what keeps the S3
// merge cost from dominating the distributed runtime.
type FrozenTable struct {
	trials  []frozenBin
	entries int
	// mapped marks a view whose arrays alias an mmap'd flat payload
	// (ViewFlatFrozen) rather than heap memory; it flips the table's
	// bytes from the resident to the mapped column of the memory
	// accounting.
	mapped bool
}

type frozenBin struct {
	words    []kmer.Word
	offsets  []int32 // len(words)+1; postings[offsets[i]:offsets[i+1]]
	postings []Posting

	// Radix bucket directory over words: bucket b spans the words whose
	// value >> shift equals b, so buckets[b]..buckets[b+1] is a
	// near-singleton range and Lookup is O(1) expected instead of a
	// full log2(words) binary search. Built at freeze time and
	// serialized with the rest of the flat payload.
	buckets []int32 // len nbuckets+1; lower bounds into words
	shift   uint
}

// buildIndex attaches the bucket directory. Sized at ~4 buckets per
// word (rounded to a power of two), it costs about twice the memory of
// the word array and leaves almost every bucket a singleton, making
// the frozen path as fast as the hash map it replaces.
func (fb *frozenBin) buildIndex() {
	n := len(fb.words)
	if n == 0 {
		fb.buckets = nil
		fb.shift = 0
		return
	}
	bitlen := bits.Len64(uint64(fb.words[n-1]))
	b := bits.Len(uint(4*n - 1))
	if b > bitlen {
		b = bitlen
	}
	fb.shift = uint(bitlen - b)
	nb := 1 << b
	fb.buckets = make([]int32, nb+1)
	idx := 0
	for v := 0; v <= nb; v++ {
		for idx < n && int(uint64(fb.words[idx])>>fb.shift) < v {
			idx++
		}
		fb.buckets[v] = int32(idx)
	}
}

// T returns the number of trial bins.
func (ft *FrozenTable) T() int { return len(ft.trials) }

// Entries returns the total posting count.
func (ft *FrozenTable) Entries() int { return ft.entries }

// Words returns the number of distinct words in trial t.
func (ft *FrozenTable) Words(t int) int { return len(ft.trials[t].words) }

// MemBytes returns the approximate resident size of the frozen table:
// the backing arrays of every trial bin (words, offsets, postings and
// the radix bucket directory). Struct headers and allocator slack are
// not charged — this is the memory-accounting figure a server reports
// per loaded index, where the arrays dominate by orders of magnitude.
func (ft *FrozenTable) MemBytes() int64 {
	var n int64
	for i := range ft.trials {
		b := &ft.trials[i]
		n += int64(len(b.words)) * 8    // kmer.Word = uint64
		n += int64(len(b.offsets)) * 4  // int32
		n += int64(len(b.postings)) * 8 // Posting = 2×int32
		n += int64(len(b.buckets)) * 4  // int32
	}
	return n
}

// Mapped reports whether this table's arrays alias an mmap'd flat
// payload rather than heap memory.
func (ft *FrozenTable) Mapped() bool { return ft.mapped }

// ResidentBytes returns the part of MemBytes that is private heap
// memory: the whole table for a heap-backed one, 0 for a mapped view
// (whose pages are file-backed, evictable, and shared across
// processes mapping the same index).
func (ft *FrozenTable) ResidentBytes() int64 {
	if ft.mapped {
		return 0
	}
	return ft.MemBytes()
}

// MappedBytes returns the part of MemBytes that aliases an mmap'd
// payload: the whole table for a mapped view, 0 otherwise.
func (ft *FrozenTable) MappedBytes() int64 {
	if !ft.mapped {
		return 0
	}
	return ft.MemBytes()
}

// Lookup returns the posting list for word w in trial t (nil when
// absent). The returned slice must not be modified.
func (ft *FrozenTable) Lookup(t int, w kmer.Word) []Posting {
	bin := &ft.trials[t]
	nb := len(bin.buckets)
	if nb == 0 {
		return nil
	}
	bi := uint64(w) >> bin.shift
	if bi >= uint64(nb-1) {
		return nil // beyond the largest indexed word
	}
	words := bin.words
	lo, hi := int(bin.buckets[bi]), int(bin.buckets[bi+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if words[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(words) || words[lo] != w {
		return nil
	}
	return bin.postings[bin.offsets[lo]:bin.offsets[lo+1]]
}

// payloadCursor walks one encoded payload (as written by
// Table.Encode) via direct slice access: within each trial its words
// arrive sorted.
type payloadCursor struct {
	buf       []byte
	off       int
	remaining int       // words left in the current trial
	word      kmer.Word // current word (valid after a true nextWord)
	listLen   int       // postings pending for the current word
}

func (c *payloadCursor) u32() (uint32, error) {
	if c.off+4 > len(c.buf) {
		return 0, fmt.Errorf("sketch: truncated payload at offset %d", c.off)
	}
	v := binary.LittleEndian.Uint32(c.buf[c.off:])
	c.off += 4
	return v, nil
}

func (c *payloadCursor) u64() (uint64, error) {
	if c.off+8 > len(c.buf) {
		return 0, fmt.Errorf("sketch: truncated payload at offset %d", c.off)
	}
	v := binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return v, nil
}

func (c *payloadCursor) nextWord() (bool, error) {
	if c.remaining == 0 {
		return false, nil
	}
	w, err := c.u64()
	if err != nil {
		return false, err
	}
	ln, err := c.u32()
	if err != nil {
		return false, err
	}
	c.word = kmer.Word(w)
	c.listLen = int(ln)
	c.remaining--
	return true, nil
}

// cursorHeap orders cursors by current word (ties by index for
// determinism).
type cursorHeap struct {
	cs  []*payloadCursor
	idx []int
}

func (h *cursorHeap) Len() int { return len(h.cs) }
func (h *cursorHeap) Less(i, j int) bool {
	if h.cs[i].word != h.cs[j].word {
		return h.cs[i].word < h.cs[j].word
	}
	return h.idx[i] < h.idx[j]
}
func (h *cursorHeap) Swap(i, j int) {
	h.cs[i], h.cs[j] = h.cs[j], h.cs[i]
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
}
func (h *cursorHeap) Push(x any) { panic("cursorHeap: push unused") }
func (h *cursorHeap) Pop() any {
	n := len(h.cs) - 1
	c := h.cs[n]
	h.cs = h.cs[:n]
	h.idx = h.idx[:n]
	return c
}

// FreezePayloads k-way merges encoded table payloads (one per rank,
// each produced by Table.Encode) into a FrozenTable. Every payload
// must carry the same trial count t.
func FreezePayloads(t int, payloads [][]byte) (*FrozenTable, error) {
	if t <= 0 {
		return nil, fmt.Errorf("sketch: freeze with t=%d", t)
	}
	cursors := make([]*payloadCursor, len(payloads))
	for i, p := range payloads {
		c := &payloadCursor{buf: p}
		pt, err := c.u32()
		if err != nil {
			return nil, fmt.Errorf("sketch: payload %d: %w", i, err)
		}
		if int(pt) != t {
			return nil, fmt.Errorf("sketch: payload %d has %d trials, want %d", i, pt, t)
		}
		cursors[i] = c
	}
	ft := &FrozenTable{trials: make([]frozenBin, t)}
	for ti := 0; ti < t; ti++ {
		// Load this trial's word counts and first words.
		h := &cursorHeap{}
		for i, c := range cursors {
			nw, err := c.u32()
			if err != nil {
				return nil, fmt.Errorf("sketch: payload %d trial %d: %w", i, ti, err)
			}
			c.remaining = int(nw)
			ok, err := c.nextWord()
			if err != nil {
				return nil, err
			}
			if ok {
				h.cs = append(h.cs, c)
				h.idx = append(h.idx, i)
			}
		}
		heap.Init(h)
		bin := &ft.trials[ti]
		bin.offsets = append(bin.offsets, 0)
		for h.Len() > 0 {
			c := h.cs[0]
			w := c.word
			if n := len(bin.words); n == 0 || bin.words[n-1] != w {
				if len(bin.words) > 0 {
					bin.offsets = append(bin.offsets, int32(len(bin.postings)))
				}
				bin.words = append(bin.words, w)
			}
			if c.off+8*c.listLen > len(c.buf) {
				return nil, fmt.Errorf("sketch: truncated posting list at offset %d", c.off)
			}
			for j := 0; j < c.listLen; j++ {
				s := binary.LittleEndian.Uint32(c.buf[c.off:])
				a := binary.LittleEndian.Uint32(c.buf[c.off+4:])
				c.off += 8
				bin.postings = append(bin.postings, Posting{Subject: int32(s), Anchor: int32(a)})
			}
			ok, err := c.nextWord()
			if err != nil {
				return nil, err
			}
			if ok {
				heap.Fix(h, 0)
			} else {
				heap.Pop(h)
			}
		}
		bin.offsets = append(bin.offsets, int32(len(bin.postings)))
		bin.buildIndex()
		ft.entries += len(bin.postings)
	}
	return ft, nil
}

// Freeze converts a mutable Table into one monolithic frozen table
// directly in memory: per trial, the words are sorted and the posting
// lists laid out contiguously. Sealing goes through FreezeSharded (a
// sealed mapper is always sharded, P ≥ 1); Freeze is the reference
// the sharded build is tested against — both bottom out in
// freezeSubset, so a 1-shard sharded table is bit-for-bit this one.
func (tb *Table) Freeze() *FrozenTable {
	words := make([][]kmer.Word, tb.T())
	for ti, bin := range tb.trials {
		ws := make([]kmer.Word, 0, len(bin))
		for w := range bin {
			ws = append(ws, w)
		}
		words[ti] = ws
	}
	return tb.freezeSubset(words)
}
