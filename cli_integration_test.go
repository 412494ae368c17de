package jem_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIPipeline builds the real binaries and drives the full
// command-line workflow the README documents:
//
//	jem-simulate → jem-assemble → jem-mapper → jem-eval → jem-scaffold → jem-stats
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs the full pipeline")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		t.Fatal(err)
	}
	tools := []string{"jem-simulate", "jem-assemble", "jem-mapper", "jem-eval", "jem-scaffold", "jem-stats"}
	for _, tool := range tools {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	run := func(tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
		}
		return string(out)
	}
	runStdout := func(tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %v: %v", tool, args, err)
		}
		return string(out)
	}

	// 1. Simulate a small dataset.
	run("jem-simulate", "-name", "cli", "-len", "300000", "-repeats", "0.1",
		"-hifi-cov", "5", "-short-cov", "25", "-out", dir)
	for _, f := range []string{"cli.ref.fasta", "cli.hifi.fastq", "cli.illumina.fastq"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}

	// 2. Assemble contigs.
	out := run("jem-assemble", "-o", filepath.Join(dir, "contigs.fasta"), filepath.Join(dir, "cli.illumina.fastq"))
	if !strings.Contains(out, "contigs:") {
		t.Fatalf("assemble output: %s", out)
	}

	// 3. Map (shared memory, TSV).
	run("jem-mapper", "-o", filepath.Join(dir, "mapping.tsv"),
		filepath.Join(dir, "contigs.fasta"), filepath.Join(dir, "cli.hifi.fastq"))
	tsv, err := os.ReadFile(filepath.Join(dir, "mapping.tsv"))
	if err != nil || len(tsv) == 0 {
		t.Fatalf("mapping.tsv: %v", err)
	}

	// 3b. Map again through a saved index; outputs must be identical.
	run("jem-mapper", "-save-index", filepath.Join(dir, "contigs.idx"), "-o", filepath.Join(dir, "m1.tsv"),
		filepath.Join(dir, "contigs.fasta"), filepath.Join(dir, "cli.hifi.fastq"))
	run("jem-mapper", "-load-index", filepath.Join(dir, "contigs.idx"), "-o", filepath.Join(dir, "m2.tsv"),
		filepath.Join(dir, "contigs.fasta"), filepath.Join(dir, "cli.hifi.fastq"))
	m1, _ := os.ReadFile(filepath.Join(dir, "m1.tsv"))
	m2, _ := os.ReadFile(filepath.Join(dir, "m2.tsv"))
	if string(m1) != string(m2) || string(m1) != string(tsv) {
		t.Fatal("index round trip changed the mapping")
	}

	// 3c. PAF output.
	paf := runStdout("jem-mapper", "-format", "paf",
		filepath.Join(dir, "contigs.fasta"), filepath.Join(dir, "cli.hifi.fastq"))
	pafLines := strings.Split(strings.TrimSpace(paf), "\n")
	if len(pafLines) < 10 || len(strings.Split(pafLines[0], "\t")) != 13 {
		t.Fatalf("paf output looks wrong: %q...", pafLines[0])
	}

	// 3d. Simulated distributed run.
	run("jem-mapper", "-p", "4", "-o", filepath.Join(dir, "dist.tsv"),
		filepath.Join(dir, "contigs.fasta"), filepath.Join(dir, "cli.hifi.fastq"))
	d1, _ := os.ReadFile(filepath.Join(dir, "dist.tsv"))
	if string(d1) != string(tsv) {
		t.Fatal("distributed mapping differs from shared-memory mapping")
	}

	// 4. Evaluate: simulated reads carry ground truth in headers.
	evalOut := run("jem-eval", "-ref", filepath.Join(dir, "cli.ref.fasta"),
		"-contigs", filepath.Join(dir, "contigs.fasta"),
		"-reads", filepath.Join(dir, "cli.hifi.fastq"),
		filepath.Join(dir, "mapping.tsv"))
	if !strings.Contains(evalOut, "precision=") {
		t.Fatalf("eval output: %s", evalOut)
	}
	// Parse the precision and insist the pipeline is sane end to end.
	for _, line := range strings.Split(evalOut, "\n") {
		if strings.HasPrefix(line, "precision=") {
			var p, r, f1 float64
			if _, err := fmtSscanf(line, &p, &r, &f1); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			if p < 0.9 || r < 0.8 {
				t.Errorf("CLI pipeline quality: %s", line)
			}
		}
	}

	// 5. Scaffold (TSV mode and oriented mode with AGP).
	run("jem-scaffold", "-contigs", filepath.Join(dir, "contigs.fasta"),
		"-reads", filepath.Join(dir, "cli.hifi.fastq"),
		"-o", filepath.Join(dir, "scaffolds.fasta"),
		filepath.Join(dir, "mapping.tsv"))
	if _, err := os.Stat(filepath.Join(dir, "scaffolds.fasta")); err != nil {
		t.Fatal("no scaffold FASTA written")
	}
	run("jem-scaffold", "-oriented", "-contigs", filepath.Join(dir, "contigs.fasta"),
		"-reads", filepath.Join(dir, "cli.hifi.fastq"),
		"-agp", filepath.Join(dir, "scaffolds.agp"))
	agp, err := os.ReadFile(filepath.Join(dir, "scaffolds.agp"))
	if err != nil || !strings.Contains(string(agp), "\tW\t") {
		t.Fatalf("AGP output: %v", err)
	}

	// 6. Stats over everything produced.
	statsOut := run("jem-stats", filepath.Join(dir, "contigs.fasta"), filepath.Join(dir, "scaffolds.fasta"))
	if !strings.Contains(statsOut, "N50") {
		t.Fatalf("stats output: %s", statsOut)
	}
}

// fmtSscanf parses "precision=X recall=Y F1=Z".
func fmtSscanf(line string, p, r, f1 *float64) (int, error) {
	return fmt.Sscanf(line, "precision=%f recall=%f F1=%f", p, r, f1)
}

// TestMapperOutputWriteErrorFails is the regression test for the
// output-path error handling jem-vet's errsink analyzer surfaced:
// jem-mapper used `defer f.Close()` on the -o file, so a failing
// output device could leave a truncated mapping table behind a zero
// exit status. Mapping to /dev/full must fail loudly, in every output
// format and on the materialised -p path.
func TestMapperOutputWriteErrorFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the jem-mapper binary")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available on this platform")
	}
	dir := t.TempDir()
	mapper := filepath.Join(dir, "jem-mapper")
	if out, err := exec.Command("go", "build", "-o", mapper, "./cmd/jem-mapper").CombinedOutput(); err != nil {
		t.Fatalf("building jem-mapper: %v\n%s", err, out)
	}

	// Tiny deterministic dataset: one 12kb contig, reads sliced from
	// it (longer than the default 1000-base end segments).
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
	contigPath := filepath.Join(dir, "contigs.fasta")
	if err := os.WriteFile(contigPath, []byte(fa.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var reads strings.Builder
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&reads, ">read%d\n%s\n", i, contig[i*1000:i*1000+3000])
	}
	readPath := filepath.Join(dir, "reads.fasta")
	if err := os.WriteFile(readPath, []byte(reads.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, mode := range [][]string{
		{"-format", "tsv", "-o", "/dev/full"},
		{"-format", "paf", "-o", "/dev/full"},
		{"-format", "sam", "-o", "/dev/full"},
		{"-p", "2", "-o", "/dev/full"},
	} {
		args := append(append([]string{}, mode...), contigPath, readPath)
		out, err := exec.Command(mapper, args...).CombinedOutput()
		if err == nil {
			t.Errorf("jem-mapper %v: expected failure writing to /dev/full, got success\n%s", mode, out)
		}
		// And the same invocation to a real file must succeed.
		okArgs := append([]string{}, args...)
		for i, a := range okArgs {
			if a == "/dev/full" {
				okArgs[i] = filepath.Join(dir, "out.tsv")
			}
		}
		if out, err := exec.Command(mapper, okArgs...).CombinedOutput(); err != nil {
			t.Errorf("jem-mapper %v: %v\n%s", okArgs, err, out)
		}
	}
}
