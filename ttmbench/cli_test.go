package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestMatchesStitchCLI runs the benchmark's sequence and the stitch
// command (`-solver ls -compose-out`) on one plate at the same compose
// budget: the two pyramid files must be byte-identical, or the harness
// no longer measures what users run.
func TestMatchesStitchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the stitch command")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "stitch")
	if out, err := exec.Command("go", "build", "-o", bin, "hybridstitch/cmd/stitch").CombinedOutput(); err != nil {
		t.Fatalf("building the stitch command: %v\n%s", err, out)
	}
	p := testPlate(t, smallMosaic)
	ours := filepath.Join(dir, "ours.tif")
	s, err := runSession(smallMosaic, p, ours, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	theirs := filepath.Join(dir, "cli.tif")
	cmd := exec.Command(bin, "-dir", p.dir, "-impl", "pipelined-cpu",
		"-threads", fmt.Sprint(runtime.NumCPU()), "-solver", "ls",
		"-compose-out", theirs, "-compose-budget", fmt.Sprint(composeBudget(smallMosaic, s.pl)))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("stitch: %v\n%s", err, out)
	}
	a, err := os.ReadFile(ours)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(theirs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("benchmark pyramid (%d bytes) differs from the stitch command's (%d bytes)", len(a), len(b))
	}
}
