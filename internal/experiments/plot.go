package experiments

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Hist2D is a fixed-grid two-dimensional histogram, the data structure
// behind a level (density) plot.
type Hist2D struct {
	XMin, XMax float64
	YMin, YMax float64
	NX, NY     int
	Counts     [][]int // Counts[iy][ix]
	Clipped    int     // points outside the plotted window (Fig. 1 crops outliers)
	Total      int
}

// newHist2D creates an empty histogram over the given window.
func newHist2D(xmin, xmax float64, nx int, ymin, ymax float64, ny int) *Hist2D {
	h := &Hist2D{XMin: xmin, XMax: xmax, YMin: ymin, YMax: ymax, NX: nx, NY: ny}
	h.Counts = make([][]int, ny)
	for i := range h.Counts {
		h.Counts[i] = make([]int, nx)
	}
	return h
}

// Add bins one point; out-of-window points are counted as clipped.
func (h *Hist2D) Add(x, y float64) {
	h.Total++
	if x < h.XMin || x >= h.XMax || y < h.YMin || y >= h.YMax ||
		math.IsNaN(x) || math.IsNaN(y) {
		h.Clipped++
		return
	}
	ix := int((x - h.XMin) / (h.XMax - h.XMin) * float64(h.NX))
	iy := int((y - h.YMin) / (h.YMax - h.YMin) * float64(h.NY))
	if ix >= h.NX {
		ix = h.NX - 1
	}
	if iy >= h.NY {
		iy = h.NY - 1
	}
	h.Counts[iy][ix]++
}

// MaxCount returns the largest bin count.
func (h *Hist2D) MaxCount() int {
	m := 0
	for _, row := range h.Counts {
		for _, c := range row {
			if c > m {
				m = c
			}
		}
	}
	return m
}

// Render draws the histogram as ASCII art with density glyphs, y
// increasing upward — a terminal rendition of the paper's level plots.
func (h *Hist2D) Render() string {
	glyphs := []byte(" .:-=+*#%@")
	maxC := h.MaxCount()
	var b strings.Builder
	for iy := h.NY - 1; iy >= 0; iy-- {
		yHi := h.YMin + (h.YMax-h.YMin)*float64(iy+1)/float64(h.NY)
		fmt.Fprintf(&b, "%9.4f |", yHi)
		for ix := 0; ix < h.NX; ix++ {
			c := h.Counts[iy][ix]
			g := glyphs[0]
			if c > 0 && maxC > 0 {
				idx := 1 + c*(len(glyphs)-2)/maxC
				if idx >= len(glyphs) {
					idx = len(glyphs) - 1
				}
				g = glyphs[idx]
			}
			b.WriteByte(g)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%9s +%s\n", "", strings.Repeat("-", h.NX))
	fmt.Fprintf(&b, "%9s  %-*.4f%*.4f\n", "", h.NX-8, h.XMin, 8, h.XMax)
	if h.Clipped > 0 {
		fmt.Fprintf(&b, "(%d of %d points outside window cropped)\n", h.Clipped, h.Total)
	}
	return b.String()
}

// WritePNG renders the 2-D histogram as a level-plot PNG with a
// white-to-dark sequential colormap, cellSize pixels per bin and a thin
// frame — a publication-style rendition of the paper's Fig. 1/2 panels
// without any plotting dependency.
func (h *Hist2D) WritePNG(w io.Writer, cellSize int) error {
	if cellSize < 1 {
		cellSize = 4
	}
	const margin = 2
	width := h.NX*cellSize + 2*margin
	height := h.NY*cellSize + 2*margin
	img := image.NewRGBA(image.Rect(0, 0, width, height))

	// Background and frame.
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			c := color.RGBA{255, 255, 255, 255}
			if x < margin || x >= width-margin || y < margin || y >= height-margin {
				c = color.RGBA{60, 60, 60, 255}
			}
			img.SetRGBA(x, y, c)
		}
	}

	maxC := h.MaxCount()
	for iy := 0; iy < h.NY; iy++ {
		for ix := 0; ix < h.NX; ix++ {
			n := h.Counts[iy][ix]
			if n == 0 {
				continue
			}
			// Log-scaled intensity so sparse and dense bins both read.
			t := math.Log1p(float64(n)) / math.Log1p(float64(maxC))
			c := levelColor(t)
			// y axis increases upward: bin iy=0 is the bottom row.
			py0 := margin + (h.NY-1-iy)*cellSize
			px0 := margin + ix*cellSize
			for dy := 0; dy < cellSize; dy++ {
				for dx := 0; dx < cellSize; dx++ {
					img.SetRGBA(px0+dx, py0+dy, c)
				}
			}
		}
	}
	return png.Encode(w, img)
}

// levelColor maps t∈[0,1] onto a white→blue→dark sequential ramp.
func levelColor(t float64) color.RGBA {
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	// Interpolate white (255,255,255) → mid blue (66,106,235) → dark navy
	// (18,26,84).
	lerp := func(a, b float64, u float64) uint8 { return uint8(a + (b-a)*u + 0.5) }
	if t < 0.5 {
		u := t * 2
		return color.RGBA{lerp(255, 66, u), lerp(255, 106, u), lerp(255, 235, u), 255}
	}
	u := (t - 0.5) * 2
	return color.RGBA{lerp(66, 18, u), lerp(106, 26, u), lerp(235, 84, u), 255}
}

// WritePNGFile writes the level plot to path.
func (h *Hist2D) WritePNGFile(path string, cellSize int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := h.WritePNG(f, cellSize); err != nil {
		f.Close()
		return fmt.Errorf("experiments: encoding %s: %w", path, err)
	}
	return f.Close()
}

// ParallelCoordinates holds one axis-normalized dataset for a parallel-
// coordinates plot: each row is one solution, each column one dimension.
type ParallelCoordinates struct {
	Axes []string
	Rows [][]float64 // raw values, Rows[i][j] on axis j
	// Tag marks rows (e.g. chemically accurate = true → "blue" in Fig. 3).
	Tag []bool
}

// AddRow appends a solution.
func (p *ParallelCoordinates) AddRow(values []float64, tagged bool) {
	if len(values) != len(p.Axes) {
		panic(fmt.Sprintf("experiments: row has %d values for %d axes", len(values), len(p.Axes)))
	}
	p.Rows = append(p.Rows, append([]float64(nil), values...))
	p.Tag = append(p.Tag, tagged)
}

// RenderTable renders the parallel-coordinates data as a text table with
// one row per solution, sorted tagged-first.
func (p *ParallelCoordinates) RenderTable(maxRows int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s", "acc")
	for _, a := range p.Axes {
		fmt.Fprintf(&b, " %14s", a)
	}
	b.WriteByte('\n')
	order := make([]int, len(p.Rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return p.Tag[order[x]] && !p.Tag[order[y]]
	})
	n := 0
	for _, i := range order {
		if maxRows > 0 && n >= maxRows {
			fmt.Fprintf(&b, "… (%d more rows)\n", len(p.Rows)-n)
			break
		}
		mark := " "
		if p.Tag[i] {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-4s", mark)
		for _, v := range p.Rows[i] {
			fmt.Fprintf(&b, " %14.6g", v)
		}
		b.WriteByte('\n')
		n++
	}
	return b.String()
}
