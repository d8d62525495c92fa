package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promSnap is one scrape of GET /v1/metrics.
type promSnap []promSample

// scrape reads the server's metrics through the benchmark's client.
func (d *deployment) scrape() (promSnap, error) {
	body, err := d.must("GET", "/v1/metrics", "", nil, 200)
	if err != nil {
		return nil, err
	}
	return parseProm(body)
}

// parseProm parses the text exposition format 0.0.4: comment lines are
// skipped, every other line is `name{label="value",...} number`.
func parseProm(text []byte) (promSnap, error) {
	var out promSnap
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		s := promSample{name: line[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			labels, err := parseLabels(s.name[i+1 : len(s.name)-1])
			if err != nil {
				return nil, fmt.Errorf("metrics: line %q: %w", line, err)
			}
			s.name, s.labels = s.name[:i], labels
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels parses `a="x",b="y"`; values may hold escaped quotes.
func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad label list %q", s)
		}
		key := s[:eq]
		rest := s[eq+1:]
		val, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return nil, fmt.Errorf("bad label value in %q", s)
		}
		uq, err := strconv.Unquote(val)
		if err != nil {
			return nil, err
		}
		labels[key] = uq
		s = strings.TrimPrefix(rest[len(val):], ",")
	}
	return labels, nil
}

// sum adds up every series of one family whose labels pass match (nil
// matches all).
func (p promSnap) sum(name string, match func(labels map[string]string) bool) float64 {
	t := 0.0
	for _, s := range p {
		if s.name == name && (match == nil || match(s.labels)) {
			t += s.value
		}
	}
	return t
}

// promDiff is the change of the server's counters across one phase.
type promDiff struct{ before, after promSnap }

// delta is the growth of a counter family over the phase.
func (d promDiff) delta(name string, match func(map[string]string) bool) float64 {
	return d.after.sum(name, match) - d.before.sum(name, match)
}

// gauge is a gauge family's value at the end of the phase.
func (d promDiff) gauge(name string) float64 { return d.after.sum(name, nil) }

// histMeanMS is the mean observation of a seconds histogram over the
// phase, in milliseconds.
func (d promDiff) histMeanMS(name string) float64 {
	return 1000 * ratio(d.delta(name+"_sum", nil), d.delta(name+"_count", nil))
}

func label(key, want string) func(map[string]string) bool {
	return func(l map[string]string) bool { return l[key] == want }
}

func labelNot(key, unwanted string) func(map[string]string) bool {
	return func(l map[string]string) bool { return l[key] != unwanted }
}
