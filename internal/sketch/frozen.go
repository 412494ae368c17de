package sketch

import "repro/internal/kmer"

// Posting is one sketch-table entry: the subject that produced a
// sketch word, plus the position of the ℓ-interval anchor the word was
// drawn from. The paper's table stores subject ids only; carrying the
// anchor is this implementation's positional extension — it enables
// approximate target coordinates (PAF output, scaffold gap estimates)
// at the cost of 4 extra bytes per entry in the gathered records (the
// communication model charges the real size either way). Anchor is -1
// for sketches without positional provenance (the simulated ranks'
// sketches, classical MinHash baselines).
type Posting struct {
	Subject int32
	Anchor  int32
}

// FrozenTable is the sketch data structure S of Algorithm 2, one
// shard of it: per trial, a sorted unique word array with a flat
// posting array indexed by prefix offsets — the paper's picture of
// S_global as "T lists". It is always a view over a flat payload (see
// flat.go and ViewFlatFrozen, its only constructor): a table the
// builder just laid out, one read from an index file and one mmap'd
// are the same type over the same bytes. Every posting list is
// subject-ascending with one posting per ⟨trial, word, subject⟩.
type FrozenTable struct {
	trials  []frozenBin
	entries int
	// payload is the flat buffer the arrays below alias.
	payload []byte
	// mapped marks a view over an mmap'd index file rather than heap
	// memory; it flips the table's bytes from the resident to the
	// mapped column of the memory accounting.
	mapped bool
}

type frozenBin struct {
	words    []kmer.Word
	offsets  []int32 // len(words)+1; postings[offsets[i]:offsets[i+1]]
	postings []Posting

	// Radix bucket directory over words: bucket b spans the words whose
	// value >> shift equals b, so buckets[b]..buckets[b+1] is a
	// near-singleton range and Lookup is O(1) expected instead of a
	// full log2(words) binary search (see bucketGeometry).
	buckets []int32 // len nbuckets+1; lower bounds into words
	shift   uint
}

// Payload returns the flat bytes this table is a view over — what an
// index file stores for the shard. It must not be modified.
func (ft *FrozenTable) Payload() []byte { return ft.payload }

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
