package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/georep/georep/internal/audit"
	"github.com/georep/georep/internal/experiment"
	"github.com/georep/georep/internal/ledger"
	"github.com/georep/georep/internal/testenv"
)

// The ledger half of the determinism contract: georepctl's offline
// views of every ledger the figures write, plus the committed
// explain_seed, reproduced byte for byte at GOMAXPROCS 1 and 8. The
// figures' own stdout, segment digests and traces are pinned by
// cmd/replicasim's TestGolden; this suite regenerates the same four
// ledgers, checks they are the segments pinned there, and renders
//
//	georepctl ledger -verify | audit | audit -why | audit -o json | explain
//
// over each. Outputs up to goldenTextMax bytes are committed as text
// (testdata/golden/<ledger>.<view>.txt), larger ones as SHA-256 digests
// (testdata/golden/SHA256SUMS). Regenerate with
//
//	GOLDEN_REGEN=1 go test ./cmd/georepctl -run TestGolden
const (
	goldenDir     = "testdata/golden"
	goldenTextMax = 64 << 10
	// figureSums pins the segments the replicasim figures write.
	figureSums = "../replicasim/testdata/golden/SHA256SUMS"
)

// figureLedgers writes the ledgers of the four ledger-writing figures
// exactly as replicasim -fig <name> -ledger-out does at its defaults.
var figureLedgers = map[string]func(*ledger.Ledger) error{
	"drift": func(l *ledger.Ledger) error {
		cfg := experiment.DefaultDriftConfig()
		cfg.Ledger = l
		_, err := experiment.Drift(1, cfg)
		return err
	},
	"failures": func(l *ledger.Ledger) error {
		cfg := experiment.DefaultFailureConfig()
		cfg.Ledger = l
		_, err := experiment.Failure(1, cfg)
		return err
	},
	"scale": func(l *ledger.Ledger) error {
		cfg := experiment.DefaultScaleConfig()
		cfg.Ledger = l
		_, err := experiment.Scale(1, cfg)
		return err
	},
	"multiobject": func(l *ledger.Ledger) error {
		cfg := experiment.DefaultMultiObjectConfig()
		cfg.Ledger = l
		_, err := experiment.MultiObject(1, cfg)
		return err
	},
}

// ledgerViews are the offline commands, with the CLI's flag defaults.
var ledgerViews = []struct {
	name   string
	render func(w io.Writer, dir string) error
}{
	{"ledger-verify", func(w io.Writer, dir string) error { return ledgerCmd(w, dir, true, 0, "tree") }},
	{"audit", func(w io.Writer, dir string) error { return auditCmd(w, dir, audit.Config{Seed: 1}, "table", false) }},
	{"audit-why", func(w io.Writer, dir string) error { return auditCmd(w, dir, audit.Config{Seed: 1}, "table", true) }},
	{"audit-json", func(w io.Writer, dir string) error { return auditCmd(w, dir, audit.Config{Seed: 1}, "json", false) }},
	{"explain", func(w io.Writer, dir string) error { return explainLocal(w, dir, -1, "", "tree", 0, 0) }},
}

func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates four figure ledgers twice")
	}
	if testenv.Race {
		t.Skip("the plain run checks the same bytes; the race build is several times slower")
	}
	regen := os.Getenv("GOLDEN_REGEN") != ""
	figSums := readSums(t, figureSums)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		dirs := map[string]string{"explain_seed": explainSeedDir}
		for name, write := range figureLedgers {
			dir := filepath.Join(t.TempDir(), name)
			l, err := ledger.Open(dir, ledger.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := write(l); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			for seg, raw := range readSegments(t, dir) {
				key := "fig-" + name + "/ledger/" + seg
				if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != figSums[key] {
					t.Errorf("GOMAXPROCS=%d %s: sha256 %s, the figure golden pins %q", procs, key, got, figSums[key])
				}
			}
			dirs[name] = dir
		}
		outs := map[string][]byte{}
		for name, dir := range dirs {
			for _, v := range ledgerViews {
				var buf bytes.Buffer
				if err := v.render(&buf, dir); err != nil {
					t.Fatalf("%s %s: %v", name, v.name, err)
				}
				outs[name+"."+v.name] = buf.Bytes()
			}
		}
		if regen && i == 0 {
			writeGoldens(t, outs)
		}
		checkGoldens(t, procs, outs)
	}
}

// TestGoldenDemoLedger pins what the committed codec-v1 demo ledger is
// for: its audit renders exactly as a fresh drift ledger's does (codec
// v3, different bytes), so the walkthrough in EXPERIMENTS.md reads the
// same either way.
func TestGoldenDemoLedger(t *testing.T) {
	var buf bytes.Buffer
	if err := auditCmd(&buf, "../../testdata/demo-ledger", audit.Config{Seed: 1}, "table", false); err != nil {
		t.Fatal(err)
	}
	checkText(t, "demo-ledger", buf.String(), filepath.Join(goldenDir, "drift.audit.txt"))
}

func writeGoldens(t *testing.T, outs map[string][]byte) {
	t.Helper()
	if err := os.RemoveAll(goldenDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var sums strings.Builder
	for _, name := range sortedKeys(outs) {
		if len(outs[name]) > goldenTextMax {
			fmt.Fprintf(&sums, "%x  %s\n", sha256.Sum256(outs[name]), name)
			continue
		}
		if err := os.WriteFile(filepath.Join(goldenDir, name+".txt"), outs[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(goldenDir, "SHA256SUMS"), []byte(sums.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func checkGoldens(t *testing.T, procs int, outs map[string][]byte) {
	t.Helper()
	sums := readSums(t, filepath.Join(goldenDir, "SHA256SUMS"))
	for _, name := range sortedKeys(outs) {
		if want, ok := sums[name]; ok {
			if got := fmt.Sprintf("%x", sha256.Sum256(outs[name])); got != want {
				t.Errorf("GOMAXPROCS=%d %s: sha256 %s (%d bytes), golden %s", procs, name, got, len(outs[name]), want)
			}
			continue
		}
		checkText(t, fmt.Sprintf("GOMAXPROCS=%d %s", procs, name), string(outs[name]), filepath.Join(goldenDir, name+".txt"))
	}
}

// checkText compares got with a committed text golden and names the
// first differing line.
func checkText(t *testing.T, label, got, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("%s: %v", label, err)
		return
	}
	if want := string(raw); got != want {
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Errorf("%s: line %d differs from %s\n got  %q\n want %q", label, i+1, path, lineAt(g, i), lineAt(w, i))
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of output>"
}

// readSums parses a sha256sum-format file into name -> hex digest.
func readSums(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sums := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sum, name, ok := strings.Cut(sc.Text(), "  "); ok {
			sums[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sums
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
