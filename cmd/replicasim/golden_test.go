package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/georep/georep/internal/experiment"
	"github.com/georep/georep/internal/testenv"
)

// The determinism contract as one test. Every EXPERIMENTS.md section
// runs through replicasim's own run at reduced scale, at GOMAXPROCS 1
// and 8, and must reproduce the committed output byte for byte:
//
//   - stdout as a text golden per entry (testdata/golden/<entry>.txt),
//     with the "done in" line masked and temp paths normalised;
//   - the ledger segments and trace JSONL an entry writes as SHA-256
//     digests (testdata/golden/SHA256SUMS, sha256sum format).
//
// Regenerate, only when a change means to move a figure, with
//
//	GOLDEN_REGEN=1 go test ./cmd/replicasim -run TestGolden
//
// and review the diff: TestPaperClaims then checks the paper's claims
// still hold on the new goldens.
const goldenDir = "testdata/golden"

// reduced is the grid scale of the world-building figures; the
// single-world experiments ignore -nodes and run at the defaults
// EXPERIMENTS.md quotes.
var reduced = []string{"-runs", "2", "-nodes", "60", "-maxk", "3"}

type goldenEntry struct {
	name   string
	args   []string
	ledger bool // also pass -ledger-out
	trace  bool // also pass -trace-out
}

func goldenEntries() []goldenEntry {
	var es []goldenEntry
	for _, fig := range []string{"1", "2", "3", "rnp", "quorum", "capacity", "readwrite", "routing", "tail", "strategies"} {
		es = append(es, goldenEntry{name: "fig-" + fig, args: append([]string{"-fig", fig}, reduced...)})
	}
	es = append(es, goldenEntry{name: "fig-2-vivaldi", args: append([]string{"-fig", "2", "-coord", "vivaldi"}, reduced...)})
	for _, fig := range []string{"drift", "threshold", "failures", "writepath", "scale", "multiobject"} {
		es = append(es, goldenEntry{
			name:   "fig-" + fig,
			args:   []string{"-fig", fig},
			ledger: fig == "drift" || fig == "failures" || fig == "scale" || fig == "multiobject",
			trace:  fig == "failures" || fig == "writepath",
		})
	}
	return es
}

var doneIn = regexp.MustCompile(`(?m)^done in .*$`)

// goldenPass runs every entry once and returns the masked stdout of each
// (entry name -> text) and the bytes of every file the entries wrote
// (entry/file -> content).
func goldenPass(t *testing.T) (texts map[string]string, blobs map[string][]byte) {
	t.Helper()
	texts, blobs = map[string]string{}, map[string][]byte{}
	for _, e := range goldenEntries() {
		tmp := t.TempDir()
		args := append([]string(nil), e.args...)
		if e.ledger {
			args = append(args, "-ledger-out", filepath.Join(tmp, "ledger"))
		}
		if e.trace {
			args = append(args, "-trace-out", filepath.Join(tmp, "spans.jsonl"))
		}
		var out bytes.Buffer
		if err := run(&out, args); err != nil {
			t.Fatalf("%s: run %v: %v", e.name, args, err)
		}
		s := doneIn.ReplaceAllString(out.String(), "done in <elapsed>")
		texts[e.name] = strings.ReplaceAll(s, tmp, "<tmp>")
		err := filepath.Walk(tmp, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			raw, err := os.ReadFile(path)
			rel := strings.TrimPrefix(path, tmp+string(filepath.Separator))
			blobs[e.name+"/"+filepath.ToSlash(rel)] = raw
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	texts["table-2"] = table2Golden(t)
	return texts, blobs
}

// table2Golden renders Table II's byte columns over a reduced sweep:
// the default 1M-access point is nearly all of the table's 18 s, and the
// wall-clock columns are zeroed because no golden can pin them.
func table2Golden(t *testing.T) string {
	t.Helper()
	cfg := experiment.DefaultCostConfig()
	cfg.Ns = []int{1_000, 3_000, 10_000}
	rows, err := experiment.Table2(rand.New(rand.NewSource(1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i].OnlineClusterTime, rows[i].OfflineClusterTime = 0, 0
	}
	return experiment.RenderCostTable(rows)
}

func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduces every figure twice")
	}
	if testenv.Race {
		t.Skip("the plain run checks the same bytes; the race build is several times slower")
	}
	regen := os.Getenv("GOLDEN_REGEN") != ""
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var prevBlobs map[string][]byte
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		texts, blobs := goldenPass(t)
		if regen && prevBlobs == nil {
			writeGoldens(t, texts, blobs)
		}
		for _, name := range sortedKeys(texts) {
			checkText(t, fmt.Sprintf("GOMAXPROCS=%d %s", procs, name), texts[name], filepath.Join(goldenDir, name+".txt"))
		}
		checkDigests(t, procs, blobs, prevBlobs)
		prevBlobs = blobs
	}
}

func writeGoldens(t *testing.T, texts map[string]string, blobs map[string][]byte) {
	t.Helper()
	if err := os.RemoveAll(goldenDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, s := range texts {
		if err := os.WriteFile(filepath.Join(goldenDir, name+".txt"), []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var sums strings.Builder
	for _, name := range sortedKeys(blobs) {
		fmt.Fprintf(&sums, "%x  %s\n", sha256.Sum256(blobs[name]), name)
	}
	if err := os.WriteFile(filepath.Join(goldenDir, "SHA256SUMS"), []byte(sums.String()), 0o644); err != nil {
		t.Fatal(err)
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

// checkDigests compares each written file with its committed digest.
// A file that also differs from the previous GOMAXPROCS pass names the
// first differing byte offset.
func checkDigests(t *testing.T, procs int, blobs, prev map[string][]byte) {
	t.Helper()
	want := readSums(t, filepath.Join(goldenDir, "SHA256SUMS"))
	for _, name := range sortedKeys(blobs) {
		got := fmt.Sprintf("%x", sha256.Sum256(blobs[name]))
		if got == want[name] {
			continue
		}
		msg := fmt.Sprintf("GOMAXPROCS=%d %s: sha256 %s (%d bytes), golden %q", procs, name, got, len(blobs[name]), want[name])
		if p, ok := prev[name]; ok && !bytes.Equal(p, blobs[name]) {
			msg += fmt.Sprintf("; differs from the previous GOMAXPROCS pass at byte %d", firstDiff(p, blobs[name]))
		}
		t.Error(msg)
	}
	for name := range want {
		if _, ok := blobs[name]; !ok {
			t.Errorf("GOMAXPROCS=%d %s: in the goldens but not written", procs, name)
		}
	}
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
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
