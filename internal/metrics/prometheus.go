package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheusPrefixed renders a snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative `_bucket{le="..."}` series plus
// `_sum` and `_count`. Metric names are sanitized to the Prometheus
// charset (dots and dashes become underscores), output is sorted by
// name so successive scrapes diff cleanly. prefix is prepended to every
// metric name ("georep_" on the daemon endpoint, so the families scrape
// consistently across a fleet); names that already carry it are not
// doubled — exporters that adopted the convention early keep their
// names.
func WritePrometheusPrefixed(w io.Writer, s Snapshot, prefix string) error {
	var b strings.Builder
	pref := func(name string) string {
		if prefix == "" || strings.HasPrefix(name, prefix) {
			return promName(name)
		}
		return promName(prefix + name)
	}
	for _, name := range SortedNames(s.Counters) {
		pn := pref(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n", pn)
		fmt.Fprintf(&b, "%s %d\n", pn, s.Counters[name])
	}
	for _, name := range SortedNames(s.Gauges) {
		pn := pref(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(&b, "%s %s\n", pn, promFloat(s.Gauges[name]))
	}
	for _, name := range SortedNames(s.Histograms) {
		h := s.Histograms[name]
		pn := pref(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		var cum int64
		sawInf := false
		for _, bk := range h.Buckets {
			cum += bk.Count
			le := promFloat(bk.Upper)
			if math.IsInf(bk.Upper, 1) {
				le = "+Inf"
				sawInf = true
			}
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", pn, le, cum)
		}
		if !sawInf {
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		}
		fmt.Fprintf(&b, "%s_sum %s\n", pn, promFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", pn, h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promName maps a registry metric name ("daemon.get.latency_ms") onto
// the Prometheus name charset [a-zA-Z0-9_:], prefixing a leading digit
// with an underscore.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			if r >= '0' && r <= '9' { // leading digit
				b.WriteByte('_')
				b.WriteRune(r)
				continue
			}
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// promFloat formats a float the way Prometheus expects: shortest exact
// decimal, with NaN and infinities spelled out.
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
