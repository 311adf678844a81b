package prom

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fastgr/internal/obs"
)

// ---------------------------------------------------------------------
// Strict text-format parser. This is deliberately unforgiving: it
// enforces the grammar a Prometheus scraper relies on — HELP then TYPE
// then samples per family, valid metric and label names, label-value
// escape sequences, histogram bucket and count invariants — so a
// renderer regression fails here before it fails a real scrape.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type parsedSample struct {
	name   string
	labels map[string]string
	value  int64
}

type parsedFamily struct {
	name    string
	help    string
	typ     string
	samples []parsedSample
}

// parseExposition parses the full text and enforces the family
// structure; any deviation is a test failure.
func parseExposition(t *testing.T, text string) []parsedFamily {
	t.Helper()
	if !strings.HasSuffix(text, "\n") {
		t.Fatalf("exposition does not end in a newline")
	}
	var fams []parsedFamily
	cur := -1
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRe.MatchString(name) {
				t.Fatalf("line %d: malformed HELP line %q", ln+1, line)
			}
			fams = append(fams, parsedFamily{name: name, help: help})
			cur = len(fams) - 1
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			if cur < 0 || fams[cur].name != fields[0] || fams[cur].typ != "" || len(fams[cur].samples) > 0 {
				t.Fatalf("line %d: TYPE for %s not immediately after its HELP", ln+1, fields[0])
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, fields[1])
			}
			fams[cur].typ = fields[1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		default:
			s := parseSample(t, ln+1, line)
			if cur < 0 || fams[cur].typ == "" {
				t.Fatalf("line %d: sample %s before HELP/TYPE", ln+1, s.name)
			}
			base := fams[cur].name
			ok := s.name == base
			if fams[cur].typ == "histogram" {
				ok = s.name == base+"_bucket" || s.name == base+"_sum" || s.name == base+"_count"
			}
			if !ok {
				t.Fatalf("line %d: sample %s outside family %s", ln+1, s.name, base)
			}
			fams[cur].samples = append(fams[cur].samples, s)
		}
	}
	for _, f := range fams {
		if f.typ == "" {
			t.Fatalf("family %s has HELP but no TYPE", f.name)
		}
		if len(f.samples) == 0 {
			t.Fatalf("family %s has no samples", f.name)
		}
	}
	if !sort.SliceIsSorted(fams, func(i, j int) bool { return fams[i].name < fams[j].name }) {
		t.Fatalf("families are not sorted by name")
	}
	return fams
}

// parseSample parses `name{label="value",...} 123` with full
// label-value unescaping.
func parseSample(t *testing.T, ln int, line string) parsedSample {
	t.Helper()
	s := parsedSample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		t.Fatalf("line %d: malformed sample %q", ln, line)
	}
	s.name = line[:i]
	if !metricNameRe.MatchString(s.name) {
		t.Fatalf("line %d: invalid metric name %q", ln, s.name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end := parseLabels(t, ln, rest, s.labels)
		rest = rest[end:]
	}
	if len(rest) == 0 || rest[0] != ' ' {
		t.Fatalf("line %d: missing value separator in %q", ln, line)
	}
	v, err := strconv.ParseInt(rest[1:], 10, 64)
	if err != nil {
		// +Inf-bucket values and sums are integers in this exposition.
		t.Fatalf("line %d: unparseable value %q: %v", ln, rest[1:], err)
	}
	s.value = v
	return s
}

// parseLabels parses the {…} block starting at text[0]=='{', returning
// the index just past the closing brace.
func parseLabels(t *testing.T, ln int, text string, out map[string]string) int {
	t.Helper()
	i := 1
	for {
		eq := strings.IndexByte(text[i:], '=')
		if eq < 0 {
			t.Fatalf("line %d: malformed label block %q", ln, text)
		}
		name := text[i : i+eq]
		if !labelNameRe.MatchString(name) {
			t.Fatalf("line %d: invalid label name %q", ln, name)
		}
		i += eq + 1
		if i >= len(text) || text[i] != '"' {
			t.Fatalf("line %d: label value not quoted in %q", ln, text)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(text) {
				t.Fatalf("line %d: unterminated label value in %q", ln, text)
			}
			c := text[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(text) {
					t.Fatalf("line %d: dangling escape in %q", ln, text)
				}
				switch text[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					t.Fatalf("line %d: invalid escape \\%c", ln, text[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := out[name]; dup {
			t.Fatalf("line %d: duplicate label %q", ln, name)
		}
		out[name] = val.String()
		if i >= len(text) {
			t.Fatalf("line %d: unterminated label block %q", ln, text)
		}
		switch text[i] {
		case ',':
			i++
		case '}':
			return i + 1
		default:
			t.Fatalf("line %d: unexpected %q after label value", ln, text[i])
		}
	}
}

// checkHistogram enforces the bucket invariants for one labeled series
// of a histogram family: le sorted ascending ending at +Inf, cumulative
// counts nondecreasing, bucket(+Inf) == count.
func checkHistogram(t *testing.T, f parsedFamily) {
	t.Helper()
	type hseries struct {
		les    []float64
		counts []int64
		count  int64
		sum    bool
		cnt    bool
	}
	bySig := map[string]*hseries{}
	sig := func(labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%s;", k, labels[k])
		}
		return b.String()
	}
	get := func(labels map[string]string) *hseries {
		s := bySig[sig(labels)]
		if s == nil {
			s = &hseries{}
			bySig[sig(labels)] = s
		}
		return s
	}
	for _, s := range f.samples {
		switch s.name {
		case f.name + "_bucket":
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("%s: bucket without le label", f.name)
			}
			v := 0.0
			if le == "+Inf" {
				v = 1e308
			} else {
				var err error
				if v, err = strconv.ParseFloat(le, 64); err != nil {
					t.Fatalf("%s: unparseable le %q", f.name, le)
				}
			}
			hs := get(s.labels)
			hs.les = append(hs.les, v)
			hs.counts = append(hs.counts, s.value)
		case f.name + "_sum":
			get(s.labels).sum = true
		case f.name + "_count":
			hs := get(s.labels)
			hs.cnt = true
			hs.count = s.value
		}
	}
	for sig, hs := range bySig {
		if !hs.sum || !hs.cnt {
			t.Fatalf("%s{%s}: missing _sum or _count", f.name, sig)
		}
		if len(hs.les) == 0 || hs.les[len(hs.les)-1] != 1e308 {
			t.Fatalf("%s{%s}: bucket series does not end at +Inf", f.name, sig)
		}
		for i := 1; i < len(hs.les); i++ {
			if hs.les[i] <= hs.les[i-1] {
				t.Fatalf("%s{%s}: le bounds not strictly ascending", f.name, sig)
			}
			if hs.counts[i] < hs.counts[i-1] {
				t.Fatalf("%s{%s}: cumulative bucket counts decrease", f.name, sig)
			}
		}
		if hs.counts[len(hs.counts)-1] != hs.count {
			t.Fatalf("%s{%s}: +Inf bucket %d != count %d",
				f.name, sig, hs.counts[len(hs.counts)-1], hs.count)
		}
	}
}

// ---------------------------------------------------------------------

func testRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter(obs.MCostHits).Add(41)
	r.Counter(obs.MCostMisses).Add(7)
	r.Counter(obs.MPatternLShape).Add(100)
	r.Counter(obs.MPatternHybrid).Add(23)
	r.Counter(obs.MMazeSearches).Add(12)
	r.Counter(obs.MFaultInjected).Add(3)
	r.Counter(obs.MFaultRecovered).Add(2)
	r.Gauge(obs.MRRRIterations).Set(2)
	r.Gauge(obs.MRRROverflow).Set(1601)
	h := r.Histogram(obs.MMazeExpansions)
	for _, v := range []int64{1, 17, 40, 700, 1 << 20} {
		h.Observe(v)
	}
	ha := r.Histogram(obs.MMazeExpansionsAStar)
	ha.Observe(33)
	// Registered but never observed: must still expose validly.
	r.Histogram(obs.MMazeExpansionsDijkstra)
	return r
}

// TestExpositionConformance renders a populated registry and holds the
// output to the strict grammar plus the histogram invariants.
func TestExpositionConformance(t *testing.T) {
	r := testRegistry()
	var buf bytes.Buffer
	if err := Write(&buf, r.Snapshot()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	fams := parseExposition(t, buf.String())

	byName := map[string]parsedFamily{}
	for _, f := range fams {
		byName[f.name] = f
	}
	for _, f := range fams {
		if f.typ == "histogram" {
			checkHistogram(t, f)
		}
	}

	// The labeled siblings merge into one family with one series each.
	reads := byName["fastgr_grid_cost_reads_total"]
	if len(reads.samples) != 2 {
		t.Fatalf("fastgr_grid_cost_reads_total: want 2 labeled series, got %+v", reads.samples)
	}
	got := map[string]int64{}
	for _, s := range reads.samples {
		got[s.labels["result"]] = s.value
	}
	if got["hit"] != 41 || got["miss"] != 7 {
		t.Fatalf("cost reads: got %v", got)
	}
	if f, ok := byName["fastgr_maze_algorithm_expansions"]; !ok {
		t.Fatalf("per-algorithm expansion family missing")
	} else {
		algs := map[string]bool{}
		for _, s := range f.samples {
			algs[s.labels["algorithm"]] = true
		}
		if !algs["astar"] || !algs["dijkstra"] {
			t.Fatalf("per-algorithm family lacks a label: %v", algs)
		}
	}
	if byName["fastgr_rrr_iterations"].typ != "gauge" {
		t.Fatalf("rrr.iterations exposed as %s, want gauge", byName["fastgr_rrr_iterations"].typ)
	}
}

// TestExpositionDeterministic renders two snapshots of the same
// registry state and demands byte-identical output; after more
// observations the output must still parse and stay internally ordered
// the same way.
func TestExpositionDeterministic(t *testing.T) {
	r := testRegistry()
	var a, b bytes.Buffer
	if err := Write(&a, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two renders of the same state differ:\n%s\nvs\n%s", a.String(), b.String())
	}

	r.Counter(obs.MCostHits).Add(1)
	r.Histogram(obs.MMazeExpansions).Observe(5)
	var c bytes.Buffer
	if err := Write(&c, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	famA := parseExposition(t, a.String())
	famC := parseExposition(t, c.String())
	if len(famA) != len(famC) {
		t.Fatalf("family count changed across observations: %d vs %d", len(famA), len(famC))
	}
	for i := range famA {
		if famA[i].name != famC[i].name {
			t.Fatalf("family order changed: %s vs %s", famA[i].name, famC[i].name)
		}
	}
}

// TestLabelEscaping pins the escape rules for label values and help
// text through the low-level helpers the renderer uses.
func TestLabelEscaping(t *testing.T) {
	in := []obs.PromLabel{{Key: "path", Value: "a\\b\"c\nd"}}
	got := renderLabels(in)
	want := `{path="a\\b\"c\nd"}`
	if got != want {
		t.Fatalf("renderLabels: got %s want %s", got, want)
	}
	if got := escapeHelp("line1\nline2 \\ done"); got != `line1\nline2 \\ done` {
		t.Fatalf("escapeHelp: got %q", got)
	}
	if got := withLE(`{algorithm="astar"}`, "+Inf"); got != `{algorithm="astar",le="+Inf"}` {
		t.Fatalf("withLE: got %s", got)
	}
	if got := withLE("", "16"); got != `{le="16"}` {
		t.Fatalf("withLE empty: got %s", got)
	}
}

// TestEmptySnapshot renders the disabled registry's zero snapshot.
func TestEmptySnapshot(t *testing.T) {
	var r *obs.Registry
	var buf bytes.Buffer
	if err := Write(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty snapshot rendered %q", buf.String())
	}
}

// TestUndeclaredMetricRefused: a hand-built snapshot carries no
// declarations, so its metrics have no family to render under.
func TestUndeclaredMetricRefused(t *testing.T) {
	s := obs.Snapshot{Counters: map[string]int64{"maze.searches": 1}}
	if err := Write(io.Discard, s); err == nil || !strings.Contains(err.Error(), "maze.searches") {
		t.Fatalf("Write of an undeclared metric: err = %v", err)
	}
}
