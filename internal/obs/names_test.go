package obs

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// sharedMetricNames lists every shared metric constant; keep in sync
// with the const block in obs.go. TestPromNameTable fails when a
// constant is added without a mapping, which is how the "every metric
// appears exactly once in snapshot and exposition" invariant is kept.
var sharedMetricNames = []string{
	MMazeExpansions, MMazePushes, MMazeSearches,
	MMazeBoundPasses, MMazeBoundCells,
	MBatchSize, MSchedBatches,
	MPatternLShape, MPatternHybrid,
	MKernelNs,
	MParWaitNs, MParRunNs,
	MTaskWaitNs, MTaskRunNs,
	MRRRNets, MRRRExpansions, MRRRIterations, MRRROverflow,
	MCostHits, MCostMisses, MCostInvalidations, MCostWarms,
	MMazeExpansionsAStar, MMazeExpansionsDijkstra,
	MFaultInjected, MFaultRecovered, MFaultDegraded, MFaultRetries,
	MServeQueueDepth, MServeAdmitted, MServeRejected, MServeRecovered,
	MServeDone, MServeFailed, MServeCancelled, MServeJobNs,
}

var promFamilyRe = regexp.MustCompile(`^fastgr_[a-z0-9_]+$`)

// TestPromNameTable checks the mapping table is exhaustive over the
// shared constants, produces valid family names, and never maps two
// dotted names onto the same (family, labels) series.
func TestPromNameTable(t *testing.T) {
	tabled := map[string]bool{}
	for _, name := range PromTableNames() {
		tabled[name] = true
	}
	for _, name := range sharedMetricNames {
		if !tabled[name] {
			t.Errorf("shared metric %q has no prom mapping (fallback would fire)", name)
		}
	}
	if len(tabled) != len(sharedMetricNames) {
		extra := []string{}
		shared := map[string]bool{}
		for _, n := range sharedMetricNames {
			shared[n] = true
		}
		for n := range tabled {
			if !shared[n] {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		t.Errorf("prom table maps names that are not shared constants: %v", extra)
	}

	series := map[string]string{}
	for _, dotted := range sharedMetricNames {
		m := PromMappingFor(dotted)
		if !promFamilyRe.MatchString(m.Family) {
			t.Errorf("%s: family %q outside the fastgr_* namespace", dotted, m.Family)
		}
		if m.Help == "" {
			t.Errorf("%s: empty help", dotted)
		}
		parts := make([]string, 0, len(m.Labels))
		for _, l := range m.Labels {
			parts = append(parts, fmt.Sprintf("%s=%s", l.Key, l.Value))
		}
		sort.Strings(parts)
		key := m.Family + "{" + strings.Join(parts, ",") + "}"
		if prev, dup := series[key]; dup {
			t.Errorf("series %s mapped from both %s and %s", key, prev, dotted)
		}
		series[key] = dotted
	}

	// Dotted names sharing a family must agree on help text, or the
	// exposition's single HELP line would be arbitrary.
	famHelp := map[string]string{}
	for _, dotted := range sharedMetricNames {
		m := PromMappingFor(dotted)
		if prev, ok := famHelp[m.Family]; ok && prev != m.Help {
			t.Errorf("family %s has conflicting help texts", m.Family)
		}
		famHelp[m.Family] = m.Help
	}
}

func TestPromMappingFallback(t *testing.T) {
	cases := map[string]string{
		"some.new.metric":      "fastgr_some_new_metric",
		"Weird NAME--here!!":   "fastgr_Weird_NAME_here",
		"...":                  "fastgr_unnamed",
		"a\nb":                 "fastgr_a_b",
		"trailing.junk...___.": "fastgr_trailing_junk",
	}
	for in, want := range cases {
		if got := PromMappingFor(in).Family; got != want {
			t.Errorf("PromMappingFor(%q).Family = %q, want %q", in, got, want)
		}
	}
	if PromMappingFor("some.new.metric").Help == "" {
		t.Errorf("fallback mapping has empty help")
	}
}
