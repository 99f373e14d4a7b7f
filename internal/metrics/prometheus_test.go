package metrics

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestWritePrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("daemon.get.calls").Add(7)
	r.Counter("transport.retries").Add(2)
	r.Gauge("replica.k").Set(3)
	h := r.Histogram("daemon.get.latency_ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := WritePrometheusPrefixed(&b, r.Snapshot(), ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE daemon_get_calls counter\n",
		"daemon_get_calls 7\n",
		"# TYPE transport_retries counter\n",
		"# TYPE replica_k gauge\n",
		"replica_k 3\n",
		"# TYPE daemon_get_latency_ms histogram\n",
		`daemon_get_latency_ms_bucket{le="1"} 1` + "\n",
		`daemon_get_latency_ms_bucket{le="10"} 3` + "\n",
		`daemon_get_latency_ms_bucket{le="100"} 4` + "\n",
		`daemon_get_latency_ms_bucket{le="+Inf"} 5` + "\n",
		"daemon_get_latency_ms_sum 560.5\n",
		"daemon_get_latency_ms_count 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}
}

// TestPrometheusTextValid lint-checks the exposition line by line: every
// sample line must parse as name{optional le label} value, every # line
// must be a TYPE comment, bucket counts must be cumulative, and the
// le="+Inf" bucket must equal _count.
func TestPrometheusTextValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("c.total").Inc()
	r.Gauge("g.now").Set(-1.5)
	h := r.Histogram("lat.ms", LatencyBuckets())
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) * 37.7)
	}

	var b strings.Builder
	if err := WritePrometheusPrefixed(&b, r.Snapshot(), ""); err != nil {
		t.Fatal(err)
	}

	var lastBucketVal int64 = -1
	var infVal, countVal int64 = -1, -1
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("non-TYPE comment: %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("no value separator: %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil && val != "+Inf" && val != "-Inf" && val != "NaN" {
			t.Fatalf("bad sample value %q in %q", val, line)
		}
		base := name
		if i := strings.IndexByte(name, '{'); i >= 0 {
			base = name[:i]
			if !strings.HasSuffix(name, "}") || !strings.Contains(name, `le="`) {
				t.Fatalf("bad labels: %q", line)
			}
		}
		for i, r := range base {
			valid := r == '_' || r == ':' ||
				(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
				(r >= '0' && r <= '9' && i > 0)
			if !valid {
				t.Fatalf("invalid metric name char %q in %q", r, base)
			}
		}
		if strings.HasPrefix(name, "lat_ms_bucket") {
			n, _ := strconv.ParseInt(val, 10, 64)
			if n < lastBucketVal {
				t.Fatalf("buckets not cumulative: %q after %d", line, lastBucketVal)
			}
			lastBucketVal = n
			if strings.Contains(name, `le="+Inf"`) {
				infVal = n
			}
		}
		if name == "lat_ms_count" {
			countVal, _ = strconv.ParseInt(val, 10, 64)
		}
	}
	if infVal != 100 || countVal != 100 {
		t.Fatalf("+Inf bucket %d and _count %d must both equal 100", infVal, countVal)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"daemon.get.calls": "daemon_get_calls",
		"a-b c":            "a_b_c",
		"9lives":           "_9lives",
		"ok_name:x":        "ok_name:x",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromFloat(t *testing.T) {
	if promFloat(math.Inf(1)) != "+Inf" || promFloat(math.Inf(-1)) != "-Inf" || promFloat(math.NaN()) != "NaN" {
		t.Fatal("special floats")
	}
	if promFloat(2.5) != "2.5" {
		t.Fatalf("promFloat(2.5) = %q", promFloat(2.5))
	}
}

func TestWritePrometheusEmptySnapshot(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheusPrefixed(&b, Snapshot{}, ""); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("empty snapshot produced output: %q", b.String())
	}
}

func TestWritePrometheusEmptyHistogramConsistent(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty.ms", []float64{1, 2})
	var b strings.Builder
	if err := WritePrometheusPrefixed(&b, r.Snapshot(), ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// An unobserved histogram has no explicit buckets in the snapshot,
	// but the exposition must still close with a consistent +Inf bucket.
	if !strings.Contains(out, `empty_ms_bucket{le="+Inf"} 0`+"\n") {
		t.Fatalf("no +Inf bucket for empty histogram:\n%s", out)
	}
	if !strings.Contains(out, "empty_ms_count 0\n") {
		t.Fatalf("missing count:\n%s", out)
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.Counter(fmt.Sprintf("c%d.total", i)).Add(int64(i))
		h := r.Histogram(fmt.Sprintf("h%d.ms", i), LatencyBuckets())
		h.Observe(float64(i))
	}
	s := r.Snapshot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		_ = WritePrometheusPrefixed(&sb, s, "")
	}
}
