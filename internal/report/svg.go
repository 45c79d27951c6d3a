package report

import (
	"fmt"
	"io"
	"strings"

	"chordbalance/internal/stats"
)

// This file renders the paper's figures as standalone SVG documents, so
// the harness can produce publication-style plots with no plotting
// dependency. Two renderers cover every figure type: paired workload
// histograms (Figures 1, 4-14) and the unit-circle ring diagram (Figures
// 2-3).

const (
	svgColorA    = "#4878a8" // series A: muted blue
	svgColorB    = "#c8643c" // series B: muted orange
	svgColorGrid = "#d8d8d8"
	svgColorText = "#333333"
)

type svgBuilder struct {
	strings.Builder
	w, h int
}

func newSVG(w, h int) *svgBuilder {
	b := &svgBuilder{w: w, h: h}
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	return b
}

func (b *svgBuilder) text(x, y float64, size int, anchor, s string) {
	fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="%d" fill="%s" text-anchor="%s">%s</text>`+"\n",
		x, y, size, svgColorText, anchor, escapeXML(s))
}

func (b *svgBuilder) rect(x, y, w, h float64, fill string, opacity float64) {
	fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" fill-opacity="%.2f"/>`+"\n",
		x, y, w, h, fill, opacity)
}

func (b *svgBuilder) line(x1, y1, x2, y2 float64, stroke string, width float64) {
	fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`+"\n",
		x1, y1, x2, y2, stroke, width)
}

func (b *svgBuilder) circle(cx, cy, r float64, fill string) {
	fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s"/>`+"\n", cx, cy, r, fill)
}

func (b *svgBuilder) close() string {
	b.WriteString("</svg>\n")
	return b.String()
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// SVGHistogramPair renders two same-shaped histograms as grouped bars —
// the layout of the paper's Figures 4-14. Pass b == nil for a
// single-series plot (Figure 1).
func SVGHistogramPair(w io.Writer, title, labelA string, a *stats.Histogram, labelB string, b *stats.Histogram) error {
	if b != nil && len(b.Edges) != len(a.Edges) {
		return fmt.Errorf("report: histogram shapes differ")
	}
	type bin struct {
		label  string
		ca, cb int
	}
	bins := []bin{{a.BinLabel(-1), a.ZeroCount, zeroOr(b, func(h *stats.Histogram) int { return h.ZeroCount })}}
	for i := range a.Counts {
		cb := 0
		if b != nil {
			cb = b.Counts[i]
		}
		if a.Counts[i] == 0 && cb == 0 {
			continue
		}
		bins = append(bins, bin{a.BinLabel(i), a.Counts[i], cb})
	}
	if a.OverCount > 0 || (b != nil && b.OverCount > 0) {
		bins = append(bins, bin{a.BinLabel(len(a.Counts)), a.OverCount,
			zeroOr(b, func(h *stats.Histogram) int { return h.OverCount })})
	}
	maxCount := 1
	for _, bn := range bins {
		if bn.ca > maxCount {
			maxCount = bn.ca
		}
		if bn.cb > maxCount {
			maxCount = bn.cb
		}
	}

	const width, height = 720, 420
	const left, right, top, bottom = 60, 20, 50, 90
	plotW := float64(width - left - right)
	plotH := float64(height - top - bottom)
	sb := newSVG(width, height)
	sb.text(float64(width)/2, 24, 15, "middle", title)

	// Horizontal gridlines at quarters.
	for i := 0; i <= 4; i++ {
		y := top + plotH*float64(i)/4
		sb.line(left, y, float64(width-right), y, svgColorGrid, 1)
		sb.text(left-6, y+4, 11, "end", fmt.Sprint(maxCount-maxCount*i/4))
	}

	group := plotW / float64(len(bins))
	barW := group * 0.38
	if b == nil {
		barW = group * 0.75
	}
	for i, bn := range bins {
		x0 := left + group*float64(i)
		hA := plotH * float64(bn.ca) / float64(maxCount)
		if b == nil {
			sb.rect(x0+group*0.125, top+plotH-hA, barW, hA, svgColorA, 0.9)
		} else {
			hB := plotH * float64(bn.cb) / float64(maxCount)
			sb.rect(x0+group*0.08, top+plotH-hA, barW, hA, svgColorA, 0.9)
			sb.rect(x0+group*0.54, top+plotH-hB, barW, hB, svgColorB, 0.9)
		}
		// Rotated bin labels.
		fmt.Fprintf(sb, `<text x="0" y="0" font-family="sans-serif" font-size="10" fill="%s" text-anchor="end" transform="translate(%.1f,%.1f) rotate(-45)">%s</text>`+"\n",
			svgColorText, x0+group/2, top+plotH+14, escapeXML(bn.label))
	}
	sb.line(left, top+plotH, float64(width-right), top+plotH, svgColorText, 1.5)

	// Legend.
	sb.rect(left, float64(height)-26, 12, 12, svgColorA, 0.9)
	sb.text(left+18, float64(height)-16, 12, "start", labelA)
	if b != nil {
		lx := left + 18 + 8*len(labelA) + 30
		sb.rect(float64(lx), float64(height)-26, 12, 12, svgColorB, 0.9)
		sb.text(float64(lx)+18, float64(height)-16, 12, "start", labelB)
	}
	_, err := io.WriteString(w, sb.close())
	return err
}

func zeroOr(h *stats.Histogram, f func(*stats.Histogram) int) int {
	if h == nil {
		return 0
	}
	return f(h)
}

// SVGRing renders the unit-circle diagram of Figures 2-3: nodes as
// filled circles, tasks as small crosses, on the ring.
func SVGRing(w io.Writer, title string, points []Point) error {
	const size = 480
	c := float64(size) / 2
	r := c * 0.82
	sb := newSVG(size, size+30)
	sb.text(c, 24, 15, "middle", title)
	fmt.Fprintf(sb, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n",
		c, c+30, r, svgColorGrid)
	for _, p := range points {
		x := c + p.X*r
		y := c + 30 - p.Y*r
		if p.Kind == "node" {
			sb.circle(x, y, 7, svgColorB)
		} else {
			sb.line(x-4, y, x+4, y, svgColorA, 1.6)
			sb.line(x, y-4, x, y+4, svgColorA, 1.6)
		}
	}
	sb.circle(36, float64(size)+12, 7, svgColorB)
	sb.text(50, float64(size)+17, 12, "start", "node")
	sb.line(116, float64(size)+12, 124, float64(size)+12, svgColorA, 1.6)
	sb.line(120, float64(size)+8, 120, float64(size)+16, svgColorA, 1.6)
	sb.text(132, float64(size)+17, 12, "start", "task")
	_, err := io.WriteString(w, sb.close())
	return err
}
