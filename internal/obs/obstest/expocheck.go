// Package obstest checks the output of package obs in tests. Only test
// files import it, so no binary carries it.
package obstest

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ValidateExposition checks that data is well-formed Prometheus text
// exposition format (version 0.0.4): every sample line parses, every
// sample's family has a preceding # TYPE line it conforms to, no series
// appears twice, and histograms are internally consistent (bucket
// counts cumulative and non-decreasing in le, a +Inf bucket present and
// equal to _count). It lets tests assert that /metrics scrapes without
// a Prometheus dependency, and it parses names itself rather than
// trusting obs's own checks.
func ValidateExposition(data []byte) error {
	types := map[string]string{}
	seen := map[string]bool{}
	type bucketPoint struct {
		le  float64
		cum int64
	}
	// histogram series key (name + labels sans le) -> observed buckets.
	buckets := map[string][]bucketPoint{}
	counts := map[string]int64{}

	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if fields[1] == "TYPE" {
				name := fields[2]
				if _, dup := types[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				if len(fields) != 4 {
					return fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
				}
				types[name] = fields[3]
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		serKey := name + labels
		if seen[serKey] {
			return fmt.Errorf("line %d: duplicate series %s", lineNo, serKey)
		}
		seen[serKey] = true

		base, sub := name, ""
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if t, ok := types[strings.TrimSuffix(name, suffix)]; ok && t == "histogram" && strings.HasSuffix(name, suffix) {
				base, sub = strings.TrimSuffix(name, suffix), suffix
				break
			}
		}
		typ, ok := types[base]
		if !ok {
			return fmt.Errorf("line %d: sample %s has no preceding # TYPE", lineNo, name)
		}
		switch typ {
		case "histogram":
			if sub == "" {
				return fmt.Errorf("line %d: histogram %s exposes bare sample %s", lineNo, base, name)
			}
			key := base + stripLE(labels)
			switch sub {
			case "_bucket":
				le, lerr := leValue(labels)
				if lerr != nil {
					return fmt.Errorf("line %d: %v", lineNo, lerr)
				}
				buckets[key] = append(buckets[key], bucketPoint{le: le, cum: int64(value)})
			case "_count":
				counts[key] = int64(value)
			}
		case "counter":
			if value < 0 {
				return fmt.Errorf("line %d: counter %s is negative (%g)", lineNo, name, value)
			}
		}
	}

	for key, pts := range buckets {
		sort.Slice(pts, func(i, j int) bool { return pts[i].le < pts[j].le })
		last := pts[len(pts)-1]
		if !math.IsInf(last.le, 1) {
			return fmt.Errorf("histogram %s: no +Inf bucket", key)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].cum < pts[i-1].cum {
				return fmt.Errorf("histogram %s: bucket counts not cumulative at le=%g", key, pts[i].le)
			}
		}
		cnt, ok := counts[key]
		if !ok {
			return fmt.Errorf("histogram %s: missing _count", key)
		}
		if cnt != last.cum {
			return fmt.Errorf("histogram %s: _count %d != +Inf bucket %d", key, cnt, last.cum)
		}
	}
	return nil
}

// parseSample splits a sample line into metric name, rendered label
// block (or "") and value. Timestamps are not produced by this package
// and are rejected.
func parseSample(line string) (name, labels string, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", "", 0, fmt.Errorf("malformed sample %q", line)
	}
	name = rest[:i]
	if !validName(name) {
		return "", "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", "", 0, fmt.Errorf("unterminated label block in %q", line)
		}
		labels = rest[:end+1]
		if err := checkLabels(labels); err != nil {
			return "", "", 0, err
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	if strings.ContainsAny(rest, " \t") {
		return "", "", 0, fmt.Errorf("unexpected timestamp or trailing data in %q", line)
	}
	v, perr := strconv.ParseFloat(rest, 64)
	if perr != nil {
		return "", "", 0, fmt.Errorf("bad sample value %q", rest)
	}
	return name, labels, v, nil
}

// checkLabels validates a rendered `{k="v",...}` block.
func checkLabels(block string) error {
	inner := strings.TrimSuffix(strings.TrimPrefix(block, "{"), "}")
	if inner == "" {
		return nil
	}
	for _, pair := range splitLabelPairs(inner) {
		eq := strings.Index(pair, "=")
		if eq <= 0 {
			return fmt.Errorf("malformed label pair %q", pair)
		}
		if !validName(pair[:eq]) {
			return fmt.Errorf("invalid label name %q", pair[:eq])
		}
		v := pair[eq+1:]
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return fmt.Errorf("unquoted label value in %q", pair)
		}
	}
	return nil
}

// splitLabelPairs splits `k="v",k2="v2"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// stripLE removes the le label from a rendered label block, yielding the
// histogram series key shared by its _bucket/_sum/_count samples.
func stripLE(labels string) string {
	if labels == "" {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	for _, pair := range splitLabelPairs(inner) {
		if !strings.HasPrefix(pair, "le=") {
			kept = append(kept, pair)
		}
	}
	if len(kept) == 0 {
		return ""
	}
	return "{" + strings.Join(kept, ",") + "}"
}

// leValue extracts the le bound from a bucket label block.
func leValue(labels string) (float64, error) {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	for _, pair := range splitLabelPairs(inner) {
		if strings.HasPrefix(pair, `le="`) {
			v := strings.TrimSuffix(strings.TrimPrefix(pair, `le="`), `"`)
			if v == "+Inf" {
				return math.Inf(1), nil
			}
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("bucket sample without le label: %s", labels)
}

// validName reports whether s is a legal Prometheus metric or label
// name: [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
