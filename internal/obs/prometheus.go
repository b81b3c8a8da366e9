package obs

import (
	"fmt"
	"io"
	"strings"
)

// This file renders a Snapshot in the Prometheus text exposition format
// (version 0.0.4): counters and gauges as single samples, histograms as
// cumulative _bucket/_sum/_count series built from the exact
// power-of-two buckets exported in HistogramStat.Buckets.
//
// Registry metric names are dot-separated and may carry inline labels
// in curly braces ("fec.solve.ns{backend=pset}"); the exporter maps dots
// (and any other character outside [a-zA-Z0-9_:]) to underscores and
// forwards the labels, so series that differ only in labels merge into
// one Prometheus metric family.

// promName is a parsed registry key: a sanitized Prometheus metric name
// plus any inline labels.
type promName struct {
	name   string
	labels string // rendered `k="v",...` body, without braces
}

// parsePromName splits an optional {k=v,...} suffix off a registry key
// and sanitizes both parts for the exposition format.
func parsePromName(key string) promName {
	base := key
	var labels []string
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		base = key[:i]
		body := key[i+1 : len(key)-1]
		for _, part := range strings.Split(body, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			k, v, ok := strings.Cut(part, "=")
			if !ok {
				k, v = "label", part
			}
			v = strings.Trim(v, `"`)
			labels = append(labels, fmt.Sprintf("%s=%q", sanitizePromName(k), v))
		}
	}
	return promName{name: sanitizePromName(base), labels: strings.Join(labels, ",")}
}

// sanitizePromName maps every byte outside the Prometheus metric-name
// alphabet [a-zA-Z0-9_:] to '_', and prefixes a '_' when the first byte
// is a digit.
func sanitizePromName(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sample renders one sample line: name{labels,extra} value.
func (p promName) sample(w io.Writer, suffix, extraLabels string, value interface{}) {
	labels := p.labels
	if extraLabels != "" {
		if labels != "" {
			labels += ","
		}
		labels += extraLabels
	}
	if labels != "" {
		fmt.Fprintf(w, "%s%s{%s} %v\n", p.name, suffix, labels, value)
	} else {
		fmt.Fprintf(w, "%s%s %v\n", p.name, suffix, value)
	}
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format. Families are emitted in sorted registry-key order
// with one # TYPE header each; registry keys that differ only in their
// inline {labels} share a family and a single header.
func (s Snapshot) WritePrometheus(w io.Writer) {
	seenType := map[string]bool{}
	emitType := func(p promName, kind string) {
		if !seenType[p.name] {
			seenType[p.name] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", p.name, kind)
		}
	}
	for _, k := range sortedKeys(s.Counters) {
		p := parsePromName(k)
		emitType(p, "counter")
		p.sample(w, "", "", s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		p := parsePromName(k)
		emitType(p, "gauge")
		p.sample(w, "", "", s.Gauges[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		p := parsePromName(k)
		h := s.Histograms[k]
		emitType(p, "histogram")
		var cum int64
		for i, n := range h.Buckets {
			cum += n
			p.sample(w, "_bucket", fmt.Sprintf(`le="%d"`, BucketUpperBound(i)), cum)
		}
		p.sample(w, "_bucket", `le="+Inf"`, h.Count)
		p.sample(w, "_sum", "", h.Sum)
		p.sample(w, "_count", "", h.Count)
	}
}

// ParsePrometheusText is a minimal validator/parser for the text
// exposition format, used by tests and the bucket round-trip check. It
// returns sample values keyed by "name{labels}" (labels exactly as
// rendered) and an error on any malformed line.
func ParsePrometheusText(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Split metric id from value; the id may contain spaces only
		// inside a label value, so cut at the last space outside '}'.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("line %d: no value: %q", ln+1, line)
		}
		id, valStr := strings.TrimSpace(line[:cut]), line[cut+1:]
		var val float64
		if _, err := fmt.Sscanf(valStr, "%g", &val); err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name := id
		if i := strings.IndexByte(id, '{'); i >= 0 {
			if !strings.HasSuffix(id, "}") {
				return nil, fmt.Errorf("line %d: unbalanced labels: %q", ln+1, id)
			}
			name = id[:i]
		}
		if name == "" || !isValidPromName(name) {
			return nil, fmt.Errorf("line %d: invalid metric name %q", ln+1, name)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %q", ln+1, id)
		}
		out[id] = val
	}
	return out, nil
}

func isValidPromName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}
