package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"fastgr/internal/core"
	"fastgr/internal/design"
	"fastgr/internal/fault"
	"fastgr/internal/obs"
	"fastgr/internal/obs/prom"
)

// metricSchema pins what the exporters show of the metric schema, with
// every sample value stripped: the /metrics HELP and TYPE lines, series
// names, labels and le bounds; the WriteSummary row names; and the
// -metrics-out snapshot keys. Recorded before the metric declarations
// moved into one table, which left it unchanged.
var metricSchema = map[string]string{
	"route": "1b7a34637802371f",
	"serve": "3a5d4c863c1827d2",
}

// schemaText renders a snapshot through every exporter and strips the
// sample values.
func schemaText(t *testing.T, s obs.Snapshot) string {
	t.Helper()
	var out strings.Builder
	var exp bytes.Buffer
	if err := prom.Write(&exp, s); err != nil {
		t.Fatalf("prom.Write: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(exp.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		out.WriteString(line + "\n")
	}
	var sum bytes.Buffer
	obs.WriteSummary(&sum, s)
	for _, line := range strings.Split(strings.TrimSuffix(sum.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "  ") {
			continue // a non-empty bucket's bar: which ones show is a sample value
		}
		out.WriteString("summary " + strings.TrimSuffix(strings.Fields(line)[0], ":") + "\n")
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("snapshot json: %v", err)
	}
	var kinds map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw, &kinds); err != nil {
		t.Fatalf("snapshot json: %v", err)
	}
	var keys []string
	for kind, m := range kinds {
		for name := range m {
			keys = append(keys, "json "+kind+"/"+name)
		}
	}
	sort.Strings(keys)
	out.WriteString(strings.Join(keys, "\n") + "\n")
	return out.String()
}

func checkSchema(t *testing.T, name string, s obs.Snapshot) {
	t.Helper()
	text := schemaText(t, s)
	sum := sha256.Sum256([]byte(text))
	if got := hex.EncodeToString(sum[:])[:16]; got != metricSchema[name] {
		t.Errorf("%s metric schema is %s, pinned %s:\n%s", name, got, metricSchema[name], text)
	}
}

// TestMetricSchemaPin routes 18test5m under FastGRH with an observer and
// an armed zero-probability fault layer (so the fault counters
// register), runs one daemon job, and pins each registry's schema.
func TestMetricSchemaPin(t *testing.T) {
	d := design.MustGenerate("18test5m", 0.005)
	opt := core.DefaultOptions(core.FastGRH)
	opt.T1, opt.T2 = 4, 40
	reg := obs.NewRegistry()
	opt.Obs = &obs.Observer{Metrics: reg}
	opt.Fault = &fault.Options{Seed: 1}
	if _, err := core.Route(d, opt); err != nil {
		t.Fatalf("route: %v", err)
	}
	checkSchema(t, "route", reg.Snapshot())

	daemon := obs.NewRegistry()
	s := startTestServer(t, Config{Obs: &obs.Observer{Metrics: daemon, Health: obs.NewHealth()}})
	id := submitJob(t, s, JobSpec{Design: "18test5m", Scale: 0.005})
	if j := waitTerminal(t, s, id, 60*time.Second); j.State != StateDone {
		t.Fatalf("job ended %s: %s", j.State, j.Error)
	}
	// The done counter is bumped after the done record is journaled.
	deadline := time.Now().Add(10 * time.Second)
	for daemon.Snapshot().Counters["serve.jobs.done"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("serve.jobs.done never reached 1")
		}
		time.Sleep(time.Millisecond)
	}
	checkSchema(t, "serve", daemon.Snapshot())
}
