package jem_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildMapperBinary compiles cmd/jem-mapper into dir and returns its
// path.
func buildMapperBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "jem-mapper")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/jem-mapper").CombinedOutput(); err != nil {
		t.Fatalf("building jem-mapper: %v\n%s", err, out)
	}
	return bin
}

// writeTinyDataset writes a deterministic contig FASTA and a reads
// FASTA (nReads reads of 3000 bases sliced from the contig) into dir.
func writeTinyDataset(t *testing.T, dir string, nReads int) (contigPath, readPath string) {
	t.Helper()
	bases := []byte("ACGT")
	contig := make([]byte, 12000)
	state := uint64(42)
	for i := range contig {
		state = state*6364136223846793005 + 1442695040888963407
		contig[i] = bases[state>>62]
	}
	var fa strings.Builder
	fa.WriteString(">contig0\n")
	fa.Write(contig)
	fa.WriteString("\n")
	contigPath = filepath.Join(dir, "contigs.fasta")
	if err := os.WriteFile(contigPath, []byte(fa.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var reads strings.Builder
	for i := 0; i < nReads; i++ {
		off := (i * 997) % (len(contig) - 3000)
		fmt.Fprintf(&reads, ">read%d\n%s\n", i, contig[off:off+3000])
	}
	readPath = filepath.Join(dir, "reads.fasta")
	if err := os.WriteFile(readPath, []byte(reads.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return contigPath, readPath
}

// TestMapperCorruptIndexFallback: a bit-flipped index file must not be
// served. jem-mapper detects the checksum mismatch, warns, rebuilds
// from the contigs, and produces the same mapping a fresh build does.
func TestMapperCorruptIndexFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the jem-mapper binary")
	}
	dir := t.TempDir()
	bin := buildMapperBinary(t, dir)
	contigPath, readPath := writeTinyDataset(t, dir, 6)
	idx := filepath.Join(dir, "contigs.idx")
	m1 := filepath.Join(dir, "m1.tsv")
	if out, err := exec.Command(bin, "-save-index", idx, "-o", m1, contigPath, readPath).CombinedOutput(); err != nil {
		t.Fatalf("save-index run: %v\n%s", err, out)
	}
	// Flip one byte near the middle of the index (inside the table).
	raw, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(idx, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := filepath.Join(dir, "m2.tsv")
	out, err := exec.Command(bin, "-load-index", idx, "-o", m2, contigPath, readPath).CombinedOutput()
	if err != nil {
		t.Fatalf("corrupt-index run should fall back, not fail: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "corrupt") || !strings.Contains(string(out), "rebuilding") {
		t.Errorf("stderr does not report the fallback:\n%s", out)
	}
	b1, _ := os.ReadFile(m1)
	b2, _ := os.ReadFile(m2)
	if len(b1) == 0 || string(b1) != string(b2) {
		t.Error("rebuilt mapping differs from the original")
	}
}

// TestMapperKillMidStream: SIGINT during a run must drain
// in-flight batches, flush a well-formed partial TSV, report the
// interruption and exit non-zero. JEM_FAULTS=writer.slow throttles
// row writes so the interrupt reliably lands mid-stream.
func TestMapperKillMidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the jem-mapper binary")
	}
	dir := t.TempDir()
	bin := buildMapperBinary(t, dir)
	// 2000 reads = 32 batches: far more than fit in the pipeline (~7
	// batches with 2 workers), so the slow writer backpressures the
	// reader and the signal reliably lands while input remains unread.
	contigPath, readPath := writeTinyDataset(t, dir, 2000)
	outPath := filepath.Join(dir, "out.tsv")
	cmd := exec.Command(bin, "-workers", "2", "-o", outPath, contigPath, readPath)
	// 5ms per row throttles the writer to ~1s of slow output; times
	// bounds the post-signal drain so the test stays fast.
	cmd.Env = append(os.Environ(), "JEM_FAULTS=writer.slow:delay=5ms,times=200")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		t.Fatalf("interrupted run exited zero; stderr:\n%s", stderr.String())
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit status: %v (want exit code 1)", err)
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("stderr does not report the interruption:\n%s", stderr.String())
	}
	// The partial TSV must be well-formed: header plus complete rows.
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	content := string(raw)
	if !strings.HasPrefix(content, "read_id\tend\tcontig_id\tshared_trials\n") {
		t.Fatalf("partial output lacks the header: %q", content[:min(len(content), 60)])
	}
	if !strings.HasSuffix(content, "\n") {
		t.Fatalf("partial output ends mid-row: %q", content[max(0, len(content)-60):])
	}
	lines := strings.Split(strings.TrimSuffix(content, "\n"), "\n")
	for i, ln := range lines[1:] {
		if strings.Count(ln, "\t") != 3 {
			t.Fatalf("row %d is torn: %q", i, ln)
		}
	}
	if len(lines)-1 >= 2*2000 {
		t.Errorf("all %d rows written; the interrupt landed too late to test anything", len(lines)-1)
	}
}

// TestMapperQuarantineSidecar: the quarantine policy end to end, in TSV
// and PAF — the run succeeds, the sidecar file names the bad record,
// the records around it are mapped, and the same input under the
// default fail policy, or on the -p path, exits non-zero.
func TestMapperQuarantineSidecar(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the jem-mapper binary")
	}
	dir := t.TempDir()
	bin := buildMapperBinary(t, dir)
	contigPath, readPath := writeTinyDataset(t, dir, 6)
	// Append a malformed FASTA record (header, then '>' inside payload).
	f, err := os.OpenFile(readPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(">badread\nACGT>GGTT\nACGT\n>lastread\nACGTACGTACGT\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.tsv")

	// Default policy: the malformed record fails the run.
	if out, err := exec.Command(bin, "-o", outPath, contigPath, readPath).CombinedOutput(); err == nil {
		t.Fatalf("fail policy accepted a malformed record:\n%s", out)
	}

	// -p maps a loaded read set to TSV: it refuses what it cannot honour.
	for _, args := range [][]string{{"-on-bad-record=quarantine"}, {"-format", "paf"}} {
		args = append(append([]string{"-p", "2"}, args...), "-o", outPath, contigPath, readPath)
		if out, err := exec.Command(bin, args...).CombinedOutput(); err == nil || !strings.Contains(string(out), "-p loads the read set") {
			t.Errorf("jem-mapper %v: %v, want the -p refusal\n%s", args, err, out)
		}
	}

	for _, format := range []string{"tsv", "paf"} {
		out, err := exec.Command(bin, "-format", format, "-on-bad-record=quarantine", "-o", outPath,
			contigPath, readPath).CombinedOutput()
		if err != nil {
			t.Fatalf("%s quarantine run: %v\n%s", format, err, out)
		}
		if !strings.Contains(string(out), "quarantined 1 bad records") {
			t.Errorf("%s: stderr does not report the quarantine:\n%s", format, out)
		}
		// Six good reads before the bad one and lastread after it.
		if !strings.Contains(string(out), "streamed 7 reads") {
			t.Errorf("%s: stderr does not count the good records:\n%s", format, out)
		}
		side, err := os.ReadFile(outPath + ".quarantine")
		if err != nil {
			t.Fatalf("%s sidecar: %v", format, err)
		}
		if !strings.Contains(string(side), "badread") || strings.Count(string(side), "\n") != 1 {
			t.Errorf("%s sidecar content: %q", format, side)
		}
		// The good records around the bad one were all mapped (PAF has
		// rows for hits only, and the 12-base lastread hits nothing).
		rows, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(rows), "read5") || (format == "tsv" && !strings.Contains(string(rows), "lastread")) {
			t.Errorf("%s: good records missing from output:\n%s", format, rows)
		}
	}
}

// TestMapperPeakRSSBounded: every format streams its reads, so peak RSS
// is bounded by the pipeline depth, not the read set — mapping eight
// copies of one jem-simulate read set (32 MB of FASTQ) to PAF peaks
// within 24 MB of mapping one copy, the slack a 1× run that never fills
// the pipeline leaves. Loading the reads first costs about twice that.
//
// A child's Maxrss starts at its spawner's RSS (os/exec spawns with a
// shared address space until exec), so the mapper is spawned by a fresh
// copy of this test binary rather than by this possibly large process.
func TestMapperPeakRSSBounded(t *testing.T) {
	if os.Getenv("JEM_PEAK_RSS") != "" {
		cmd := exec.Command(flag.Arg(0), flag.Args()[1:]...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v: %v\n%s", cmd.Args, err, out)
		}
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			t.Skip("no rusage on this platform")
		}
		fmt.Printf("maxrss_kb %d\n", ru.Maxrss)
		return
	}
	if testing.Short() {
		t.Skip("builds binaries and maps a 32 MB read set")
	}
	const rssSlackKB = 24 << 10
	dir := t.TempDir()
	bin := buildMapperBinary(t, dir)
	sim := filepath.Join(dir, "jem-simulate")
	if out, err := exec.Command("go", "build", "-o", sim, "./cmd/jem-simulate").CombinedOutput(); err != nil {
		t.Fatalf("building jem-simulate: %v\n%s", err, out)
	}
	if out, err := exec.Command(sim, "-len", "200000", "-out", dir, "-name", "rss").CombinedOutput(); err != nil {
		t.Fatalf("jem-simulate: %v\n%s", err, out)
	}
	once, err := os.ReadFile(filepath.Join(dir, "rss.hifi.fastq"))
	if err != nil {
		t.Fatal(err)
	}
	eight := filepath.Join(dir, "reads8.fastq")
	if err := os.WriteFile(eight, bytes.Repeat(once, 8), 0o644); err != nil {
		t.Fatal(err)
	}
	peakKB := func(reads string) int64 {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestMapperPeakRSSBounded$", "--",
			bin, "-format", "paf", "-workers", "2", "-o", filepath.Join(dir, "out.paf"),
			filepath.Join(dir, "rss.ref.fasta"), reads)
		cmd.Env = append(os.Environ(), "JEM_PEAK_RSS=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("measuring %s: %v\n%s", reads, err, out)
		}
		var kb int64
		if _, err := fmt.Sscanf(string(out), "maxrss_kb %d", &kb); err != nil {
			t.Skipf("no peak RSS reported: %s", out)
		}
		return kb
	}
	one, all := peakKB(filepath.Join(dir, "rss.hifi.fastq")), peakKB(eight)
	t.Logf("peak RSS: %d KB at 1×, %d KB at 8× the reads", one, all)
	if all > one+rssSlackKB {
		t.Errorf("peak RSS grew with the read set: %d KB at 1×, %d KB at 8× (bound +%d KB)", one, all, rssSlackKB)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
