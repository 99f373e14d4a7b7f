package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/georep/georep/internal/latency"
)

func TestRunGenerateAndSummarize(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "matrix.txt")
	if err := run([]string{"-nodes", "20", "-seed", "3", "-out", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := latency.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 20 {
		t.Fatalf("N = %d", m.N())
	}
	if err := run([]string{"-summarize", out}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFromKing(t *testing.T) {
	dir := t.TempDir()
	king := filepath.Join(dir, "king.txt")
	if err := os.WriteFile(king, []byte("0 10000\n10000 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "native.txt")
	if err := run([]string{"-from-king", king, "-out", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := latency.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.RTT(0, 1) != 10 {
		t.Fatalf("converted RTT = %v, want 10 ms", m.RTT(0, 1))
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-summarize", "/nonexistent/file"},
		{"-from-king", "/nonexistent/file"},
		{"-nodes", "1"}, // generator needs >= 2
		{"-out", "/nonexistent-dir/x.txt"},
		{"-bogus-flag"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestNaNMatrixExitsNonZero runs the command on a matrix file holding a
// NaN: it must exit non-zero with a message naming the entry, not print
// NaN statistics.
func TestNaNMatrixExitsNonZero(t *testing.T) {
	if path := os.Getenv("LATGEN_SUMMARIZE"); path != "" {
		os.Args = []string{"latgen", "-summarize", path}
		main()
		return
	}
	path := filepath.Join(t.TempDir(), "nan.txt")
	if err := os.WriteFile(path, []byte("2\n0 NaN\nNaN 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNaNMatrixExitsNonZero$")
	cmd.Env = append(os.Environ(), "LATGEN_SUMMARIZE="+path)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("latgen exited %v on a NaN matrix; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), `non-finite value "NaN" at (0,1)`) {
		t.Fatalf("message does not name the entry:\n%s", out)
	}
}
