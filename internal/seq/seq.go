// Package seq provides DNA sequence primitives shared by every other
// package in the repository: the 2-bit nucleotide encoding, reverse
// complementation, base counts, and FASTA/FASTQ input and output.
//
// Sequences are represented as plain []byte over the alphabet
// {a,c,g,t} (lower or upper case accepted on input; internal
// representation is upper case A,C,G,T). Ambiguity codes (N and IUPAC
// letters) are preserved verbatim by the parsers.
package seq

// Code2Base maps a 2-bit code (0..3) to its upper-case base letter.
// The ordering a < c < g < t makes numeric comparisons of packed
// k-mers equivalent to lexicographic comparison of the underlying
// strings, which the JEM sketch relies on.
var Code2Base = [4]byte{'A', 'C', 'G', 'T'}

// base2Code maps an ASCII byte to its 2-bit code, or 0xFF when the
// byte is not one of acgtACGT.
var base2Code [256]byte

// complement maps an ASCII base to its complement, preserving case for
// acgtACGT and mapping everything else to 'N'.
var complement [256]byte

func init() {
	for i := range base2Code {
		base2Code[i] = 0xFF
		complement[i] = 'N'
	}
	for code, b := range Code2Base {
		base2Code[b] = byte(code)
		base2Code[b+'a'-'A'] = byte(code)
	}
	pairs := []struct{ a, b byte }{{'A', 'T'}, {'C', 'G'}, {'a', 't'}, {'c', 'g'}}
	for _, p := range pairs {
		complement[p.a] = p.b
		complement[p.b] = p.a
	}
}

// Code returns the 2-bit code of base b and whether b is a valid
// unambiguous DNA base (acgtACGT).
func Code(b byte) (byte, bool) {
	c := base2Code[b]
	return c, c != 0xFF
}

// Base returns the upper-case letter for 2-bit code c (c must be 0..3).
func Base(c byte) byte { return Code2Base[c&3] }

// Complement returns the complement of a single base, preserving case.
// Non-ACGT bytes complement to 'N'.
func Complement(b byte) byte { return complement[b] }

// ReverseComplement returns a newly allocated reverse complement of s.
func ReverseComplement(s []byte) []byte {
	rc := make([]byte, len(s))
	for i, b := range s {
		rc[len(s)-1-i] = complement[b]
	}
	return rc
}

// ReverseComplementInPlace reverse-complements s in place.
func ReverseComplementInPlace(s []byte) {
	i, j := 0, len(s)-1
	for i < j {
		s[i], s[j] = complement[s[j]], complement[s[i]]
		i++
		j--
	}
	if i == j {
		s[i] = complement[s[i]]
	}
}

// Upper upper-cases s in place and returns it. Only a-z are affected;
// other bytes pass through unchanged.
func Upper(s []byte) []byte {
	for i, b := range s {
		if b >= 'a' && b <= 'z' {
			s[i] = b - ('a' - 'A')
		}
	}
	return s
}

// CountValid returns the number of unambiguous DNA bases in s.
func CountValid(s []byte) int {
	n := 0
	for _, b := range s {
		if base2Code[b] != 0xFF {
			n++
		}
	}
	return n
}

// GC returns the fraction of G/C bases among the valid bases of s.
// It returns 0 for sequences with no valid bases.
func GC(s []byte) float64 {
	gc, total := 0, 0
	for _, b := range s {
		switch base2Code[b] {
		case 1, 2:
			gc++
			total++
		case 0, 3:
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(gc) / float64(total)
}

// Record is a named sequence, optionally with FASTQ qualities.
type Record struct {
	// ID is the first whitespace-delimited token of the header line.
	ID string
	// Desc is the remainder of the header line (may be empty).
	Desc string
	// Seq is the sequence payload.
	Seq []byte
	// Qual holds per-base Phred+33 qualities for FASTQ records; nil
	// for FASTA records.
	Qual []byte
}

// Len returns the sequence length in bases.
func (r *Record) Len() int { return len(r.Seq) }

// TotalBases sums the sequence lengths of records.
func TotalBases(records []Record) int64 {
	var n int64
	for i := range records {
		n += int64(len(records[i].Seq))
	}
	return n
}
