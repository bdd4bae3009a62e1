package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromSample is one parsed series line of a text exposition.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromExposition is the parsed form of a /metrics page: declared types
// per family plus every sample, in order.
type PromExposition struct {
	Types   map[string]string // family -> counter|gauge|histogram|...
	Samples []PromSample
}

// Get returns all samples named name, in exposition order.
func (e *PromExposition) Get(name string) []PromSample {
	var out []PromSample
	for _, s := range e.Samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Value returns the first sample named name whose labels include all
// of want, and whether one was found.
func (e *PromExposition) Value(name string, want map[string]string) (float64, bool) {
	for _, s := range e.Samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s.Value, true
		}
	}
	return 0, false
}

// ParseProm parses Prometheus text exposition format. It accepts the
// subset this repo emits (HELP/TYPE comments, optional labels, plain
// float values) and errors on anything malformed.
func ParseProm(r io.Reader) (*PromExposition, error) {
	exp := &PromExposition{Types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 3 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE comment: %q", lineNo, line)
				}
				if _, dup := exp.Types[fields[2]]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, fields[2])
				}
				exp.Types[fields[2]] = fields[3]
			}
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		exp.Samples = append(exp.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return exp, nil
}

func parsePromLine(line string) (PromSample, error) {
	var s PromSample
	rest := line
	// Split off the metric name (up to '{' or whitespace).
	nameEnd := strings.IndexAny(rest, "{ \t")
	if nameEnd <= 0 {
		return s, fmt.Errorf("malformed sample line: %q", line)
	}
	s.Name = rest[:nameEnd]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[nameEnd:]
	if strings.HasPrefix(rest, "{") {
		close := strings.Index(rest, "}")
		if close < 0 {
			return s, fmt.Errorf("unterminated label set: %q", line)
		}
		labels, err := parsePromLabels(rest[1:close])
		if err != nil {
			return s, fmt.Errorf("%v in %q", err, line)
		}
		s.Labels = labels
		rest = rest[close+1:]
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return s, fmt.Errorf("missing value: %q", line)
	}
	// A timestamp suffix would appear as a second field; we don't emit
	// them, but tolerate by taking the first field as the value.
	val := strings.Fields(rest)[0]
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q", val)
	}
	s.Value = v
	return s, nil
}

func parsePromLabels(body string) (map[string]string, error) {
	labels := make(map[string]string)
	for body != "" {
		eq := strings.Index(body, "=")
		if eq <= 0 {
			return nil, fmt.Errorf("malformed label pair")
		}
		key := strings.TrimSpace(body[:eq])
		rest := body[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, fmt.Errorf("unquoted label value for %q", key)
		}
		// Find the closing quote, honoring backslash escapes.
		i := 1
		for i < len(rest) {
			if rest[i] == '\\' {
				i += 2
				continue
			}
			if rest[i] == '"' {
				break
			}
			i++
		}
		if i >= len(rest) {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		val, err := strconv.Unquote(rest[:i+1])
		if err != nil {
			return nil, fmt.Errorf("bad label value for %q", key)
		}
		if _, dup := labels[key]; dup {
			return nil, fmt.Errorf("duplicate label %q", key)
		}
		labels[key] = val
		rest = rest[i+1:]
		rest = strings.TrimPrefix(rest, ",")
		body = strings.TrimSpace(rest)
	}
	return labels, nil
}

func validMetricName(name string) bool {
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(name) > 0
}

// CheckExposition parses r and additionally rejects duplicate series
// (same name + identical label set appearing twice) and samples whose
// family kind contradicts their suffix. It returns the parsed
// exposition on success — the contract the CI smoke step enforces
// against a live /metrics page.
func CheckExposition(r io.Reader) (*PromExposition, error) {
	exp, err := ParseProm(r)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(exp.Samples))
	for _, s := range exp.Samples {
		key := s.Name + renderSorted(s.Labels)
		if seen[key] {
			return nil, fmt.Errorf("duplicate series %s", key)
		}
		seen[key] = true
	}
	// Histogram families must expose _bucket/_sum/_count triples.
	for name, typ := range exp.Types {
		if typ != "histogram" {
			continue
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if len(exp.Get(name+suffix)) == 0 {
				return nil, fmt.Errorf("histogram %s missing %s series", name, suffix)
			}
		}
	}
	return exp, nil
}

func renderSorted(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}
