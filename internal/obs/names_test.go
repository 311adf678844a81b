package obs

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var promFamilyRe = regexp.MustCompile(`^fastgr_[a-z0-9_]+$`)

// TestPromNameTable holds the declaration table to what the exposition
// relies on: every family in the fastgr_* namespace with non-empty help,
// no two declarations on one name or one (family, labels) series, one
// kind and one help text per family, and ascending histogram bounds.
func TestPromNameTable(t *testing.T) {
	if len(declared) == 0 {
		t.Fatal("no metric declarations")
	}
	names := map[string]bool{}
	series := map[string]string{}
	famKind := map[string]string{}
	famHelp := map[string]string{}
	for _, d := range declared {
		if names[d.name] {
			t.Errorf("%s declared twice", d.name)
		}
		names[d.name] = true
		if !promFamilyRe.MatchString(d.family) {
			t.Errorf("%s: family %q outside the fastgr_* namespace", d.name, d.family)
		}
		if d.help == "" {
			t.Errorf("%s: empty help", d.name)
		}
		parts := make([]string, 0, len(d.labels))
		for _, l := range d.labels {
			parts = append(parts, fmt.Sprintf("%s=%s", l.Key, l.Value))
		}
		sort.Strings(parts)
		key := d.family + "{" + strings.Join(parts, ",") + "}"
		if prev, dup := series[key]; dup {
			t.Errorf("series %s declared by both %s and %s", key, prev, d.name)
		}
		series[key] = d.name
		if k, ok := famKind[d.family]; ok && k != d.kind {
			t.Errorf("family %s declared as both %s and %s", d.family, k, d.kind)
		}
		famKind[d.family] = d.kind
		if h, ok := famHelp[d.family]; ok && h != d.help {
			t.Errorf("family %s has conflicting help texts", d.family)
		}
		famHelp[d.family] = d.help
		if (d.kind == "histogram") != (len(d.bounds) > 0) {
			t.Errorf("%s: a %s with %d bounds", d.name, d.kind, len(d.bounds))
		}
		for i := 1; i < len(d.bounds); i++ {
			if d.bounds[i] <= d.bounds[i-1] {
				t.Errorf("%s: bounds not ascending at %d: %v", d.name, i, d.bounds)
			}
		}
	}
}
