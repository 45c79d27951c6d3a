package report

import (
	"strings"
	"testing"

	"chordbalance/internal/stats"
)

func validSVG(t *testing.T, s string) {
	t.Helper()
	if !strings.HasPrefix(s, "<svg ") || !strings.HasSuffix(s, "</svg>\n") {
		t.Fatalf("not a well-formed SVG envelope:\n%.120s...", s)
	}
	for _, tag := range []string{"<rect", "<text"} {
		if !strings.Contains(s, tag) {
			t.Errorf("SVG missing %s", tag)
		}
	}
	// Every opened tag family must balance at least structurally: no
	// stray unescaped & or <.
	if strings.Contains(s, "&&") {
		t.Error("unescaped ampersand")
	}
}

func TestSVGHistogramPair(t *testing.T) {
	a := stats.NewLogHistogram(1000, 1)
	b := stats.NewLogHistogram(1000, 1)
	a.Add(0)
	a.Add(5)
	a.Add(500)
	b.Add(50)
	b.Add(5000)
	var sb strings.Builder
	if err := SVGHistogramPair(&sb, "Figure X", "left & side", a, "right", b); err != nil {
		t.Fatal(err)
	}
	s := sb.String()
	validSVG(t, s)
	if !strings.Contains(s, "left &amp; side") {
		t.Error("legend label not escaped")
	}
	if !strings.Contains(s, svgColorB) {
		t.Error("second series color missing")
	}
}

func TestSVGHistogramSingle(t *testing.T) {
	a := stats.NewLogHistogram(100, 1)
	a.Add(3)
	var sb strings.Builder
	if err := SVGHistogramPair(&sb, "Figure 1", "workload", a, "", nil); err != nil {
		t.Fatal(err)
	}
	s := sb.String()
	validSVG(t, s)
	if strings.Contains(s, svgColorB) {
		t.Error("single-series plot must not draw series B")
	}
}

func TestSVGHistogramShapeMismatch(t *testing.T) {
	a := stats.NewLogHistogram(100, 1)
	b := stats.NewLogHistogram(1000, 1)
	var sb strings.Builder
	if err := SVGHistogramPair(&sb, "t", "a", a, "b", b); err == nil {
		t.Error("shape mismatch must fail")
	}
}

func TestSVGRing(t *testing.T) {
	pts := []Point{
		{X: 0, Y: 1, Kind: "node"},
		{X: 1, Y: 0, Kind: "task"},
		{X: -1, Y: 0, Kind: "task"},
	}
	var sb strings.Builder
	if err := SVGRing(&sb, "Figure 2", pts); err != nil {
		t.Fatal(err)
	}
	s := sb.String()
	validSVG(t, s)
	if strings.Count(s, "<circle") < 2 { // ring outline + 1 node + legend
		t.Error("missing circles")
	}
}

func TestEscapeXML(t *testing.T) {
	if got := escapeXML(`<a & "b">`); got != "&lt;a &amp; &quot;b&quot;&gt;" {
		t.Errorf("escapeXML = %q", got)
	}
}
