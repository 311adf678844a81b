package guide

import (
	"bytes"
	"strings"
	"testing"

	"fastgr/internal/core"
	"fastgr/internal/design"
)

func routedResult(t testing.TB) *core.Result {
	t.Helper()
	d := design.MustGenerate("18test5m", 0.003)
	opt := core.DefaultOptions(core.FastGRH)
	opt.T1, opt.T2 = 5, 27
	res, err := core.Route(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGuidesCoverEveryRoute(t *testing.T) {
	res := routedResult(t)
	guides := FromResult(res)
	if len(guides) != len(res.Design.Nets) {
		t.Fatalf("%d guides for %d nets", len(guides), len(res.Design.Nets))
	}
	if err := Covers(res, guides); err != nil {
		t.Fatalf("guide contract broken: %v", err)
	}
	for _, g := range guides {
		if len(g.Boxes) == 0 {
			t.Fatalf("net %s has an empty guide", g.Net)
		}
		if g.Area() == 0 {
			t.Fatalf("net %s guide area is zero", g.Net)
		}
	}
}

func TestCoversDetectsViolation(t *testing.T) {
	res := routedResult(t)
	guides := FromResult(res)
	// Remove one net's guide entirely.
	broken := append([]Guide(nil), guides[1:]...)
	if err := Covers(res, broken); err == nil {
		t.Fatal("missing guide accepted")
	}
	// Shrink a guide so it no longer covers its net.
	mangled := make([]Guide, len(guides))
	copy(mangled, guides)
	victim := -1
	for i, g := range guides {
		if len(g.Boxes) > 1 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Skip("no multi-box guide to mangle")
	}
	mangled[victim] = Guide{Net: guides[victim].Net, Boxes: guides[victim].Boxes[:1]}
	if err := Covers(res, mangled); err == nil {
		t.Fatal("shrunken guide accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	res := routedResult(t)
	guides := FromResult(res)
	var buf bytes.Buffer
	if err := Write(&buf, guides); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(guides) {
		t.Fatalf("round trip: %d vs %d guides", len(got), len(guides))
	}
	for i := range guides {
		if got[i].Net != guides[i].Net || len(got[i].Boxes) != len(guides[i].Boxes) {
			t.Fatalf("guide %d differs after round trip", i)
		}
		for j := range guides[i].Boxes {
			if got[i].Boxes[j] != guides[i].Boxes[j] {
				t.Fatalf("guide %d box %d differs", i, j)
			}
		}
	}
	// Round-tripped guides still satisfy the contract.
	if err := Covers(res, got); err != nil {
		t.Fatal(err)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"(\n)",               // body without net
		"netA\n(\n",          // unterminated
		"netA\nnetB\n(\n)\n", // net name while another is pending
		"netA\n(\nbogus line\n)\n",
		"netA\n(\n)\n)\n", // stray close
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
	// Empty input is a valid empty guide set.
	if g, err := Read(strings.NewReader("")); err != nil || len(g) != 0 {
		t.Fatal("empty input should parse to zero guides")
	}
}

func TestMergeCompactsBoxes(t *testing.T) {
	res := routedResult(t)
	guides := FromResult(res)
	// Merged boxes must be far fewer than raw cell counts for typical nets.
	for _, g := range guides[:20] {
		if len(g.Boxes) > g.Area() {
			t.Fatalf("net %s: %d boxes exceed area %d", g.Net, len(g.Boxes), g.Area())
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	res := routedResult(t)
	var a, b bytes.Buffer
	if err := Write(&a, FromResult(res)); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, FromResult(res)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("guide generation nondeterministic")
	}
}

// TestReadMalformedBoxLines pins the strict body-line validation: every
// corruption is rejected with an error naming the line, the net and the
// offending field — the diagnosis a user debugging a cross-tool guide
// file needs.
func TestReadMalformedBoxLines(t *testing.T) {
	cases := []struct {
		name, line, want string
	}{
		{"too few fields", "1 2 3 4", `want 5 fields`},
		{"too many fields", "1 2 3 4 5 6", `want 5 fields`},
		{"trailing junk", "1 2 3 4 x", `field layer: "x" is not an integer`},
		{"non-integer coord", "a 2 3 4 1", `field x1: "a" is not an integer`},
		{"float coord", "1.5 2 3 4 1", `field x1: "1.5" is not an integer`},
		{"layer zero", "1 2 3 4 0", "layer 0 < 1"},
		{"negative layer", "1 2 3 4 -2", "layer -2 < 1"},
		{"negative corner", "-1 2 3 4 1", "negative corner (-1,2)"},
		{"inverted x", "5 2 3 4 1", "inverted rectangle (5,2)-(3,4)"},
		{"inverted y", "1 9 3 4 1", "inverted rectangle (1,9)-(3,4)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := "netA\n(\n" + tc.line + "\n)\n"
			_, err := Read(strings.NewReader(in))
			if err == nil {
				t.Fatalf("malformed box line %q accepted", tc.line)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), `net "netA"`) {
				t.Fatalf("error %q does not locate line 3 / net netA", err)
			}
		})
	}
	// Boundary cases that must stay accepted: degenerate single-cell box,
	// extra whitespace between fields.
	g, err := Read(strings.NewReader("netA\n(\n7 7 7 7 1\n  1\t2  3 4   2 \n)\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 1 || len(g[0].Boxes) != 2 {
		t.Fatalf("valid boundary guides misparsed: %+v", g)
	}
}
