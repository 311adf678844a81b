// Package prom renders an obs registry snapshot in the Prometheus text
// exposition format 0.0.4, the format every Prometheus-compatible
// scraper (Prometheus itself, VictoriaMetrics, Grafana agent) consumes
// from a /metrics endpoint.
//
// Every metric's family, help text and constant labels come from its
// declaration in internal/obs (names.go), which the snapshot carries:
// dotted siblings that are one logical metric split by a dimension share
// a family and differ in a constant label. Counters render with the
// conventional _total suffix, gauges bare, and the registry's
// pow2-bucket histograms become cumulative _bucket series with a +Inf
// bound plus _sum and _count.
//
// Output is deterministic: families sort by exposed name, series within
// a family sort by label signature, and two renders of the same
// snapshot are byte-identical — the conformance test in this package
// holds the renderer to the format's grammar (HELP/TYPE ordering,
// escaping, bucket monotonicity, count/+Inf agreement).
package prom

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"fastgr/internal/obs"
)

// ContentType is the Content-Type header value a /metrics handler
// should serve alongside this exposition.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// series is one labeled member of a family.
type series struct {
	labels string // rendered {k="v",...} signature, "" when unlabeled
	value  int64
	hist   obs.HistSnapshot
}

type family struct {
	name   string // exposed name: family (+ _total for counters)
	help   string
	kind   string
	series []series
}

// Write renders the snapshot. The error is the writer's, or names a
// metric the snapshot holds no declaration for (a hand-built snapshot).
func Write(w io.Writer, s obs.Snapshot) error {
	byName := map[string]*family{}
	add := func(dotted string, sr series) error {
		d := s.Decl(dotted)
		if d == nil {
			return fmt.Errorf("prom: metric %q has no declaration", dotted)
		}
		name := d.Family()
		if d.Kind() == "counter" {
			name += "_total"
		}
		f := byName[name]
		if f == nil {
			f = &family{name: name, help: d.Help(), kind: d.Kind()}
			byName[name] = f
		}
		sr.labels = renderLabels(d.Labels())
		f.series = append(f.series, sr)
		return nil
	}
	for _, dotted := range sortedKeys(s.Counters) {
		if err := add(dotted, series{value: s.Counters[dotted]}); err != nil {
			return err
		}
	}
	for _, dotted := range sortedKeys(s.Gauges) {
		if err := add(dotted, series{value: s.Gauges[dotted]}); err != nil {
			return err
		}
	}
	for _, dotted := range sortedKeys(s.Histograms) {
		if err := add(dotted, series{hist: s.Histograms[dotted]}); err != nil {
			return err
		}
	}

	var b strings.Builder
	for _, name := range sortedKeys(byName) {
		f := byName[name]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, sr := range f.series {
			if f.kind == "histogram" {
				writeHistogram(&b, f.name, sr)
			} else {
				fmt.Fprintf(&b, "%s%s %d\n", f.name, sr.labels, sr.value)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram emits the cumulative _bucket series, _sum and _count.
// The +Inf bucket and _count are both the sum over the snapshot's
// per-bucket counts, so they agree exactly even when observations were
// in flight while the snapshot's independent atomics were read.
func writeHistogram(b *strings.Builder, name string, sr series) {
	var cum int64
	for i, bound := range sr.hist.Bounds {
		cum += sr.hist.Counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(sr.labels, strconv.FormatInt(bound, 10)), cum)
	}
	if n := len(sr.hist.Counts); n > 0 {
		cum += sr.hist.Counts[n-1] // overflow bucket
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(sr.labels, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %d\n", name, sr.labels, sr.hist.Sum)
	fmt.Fprintf(b, "%s_count%s %d\n", name, sr.labels, cum)
}

// withLE appends the le label to an already-rendered label signature.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return strings.TrimSuffix(labels, "}") + `,le="` + le + `"}`
}

// renderLabels renders constant labels as {k="v",...} with label-value
// escaping per the format spec (backslash, double quote, newline).
func renderLabels(labels []obs.PromLabel) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(h string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
