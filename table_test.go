package repro

import (
	"math"
	"strings"
	"testing"
)

// pt builds a point with its summary: median and 95% CI over five trials.
func pt(x, median, lo, hi float64) Point {
	return Point{X: x, PointSummary: PointSummary{Median: median, CI95Lo: lo, CI95Hi: hi, Trials: 5}}
}

func makeTable() Table {
	return Table{
		ID: "fig0", Title: "test", XLabel: "n",
		Series: []Series{
			{Name: "BEB", Points: []Point{pt(10, 100, 90, 110), pt(20, 200, 180, 220)}},
			{Name: "STB", Points: []Point{pt(10, 50, 45, 55), pt(20, 260, 250, 270)}},
		},
	}
}

func TestPercentVsBaseline(t *testing.T) {
	tab := makeTable()
	got, err := tab.PercentVsBaseline("STB", "BEB")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-30) > 1e-9 { // (260-200)/200
		t.Fatalf("percent = %v", got)
	}
	if _, err := tab.PercentVsBaseline("NOPE", "BEB"); err == nil {
		t.Fatal("missing series accepted")
	}
}

func TestWriteTable(t *testing.T) {
	tab := makeTable()
	tab.Notes = append(tab.Notes, "hello note")
	var sb strings.Builder
	if err := tab.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"FIG0", "BEB", "STB", "hello note", "200.0", "[ 180.0, 220.0]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tab := makeTable()
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "n,BEB_median") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "10,100,90,110,5") {
		t.Fatalf("row %q", lines[1])
	}
}

func TestWritePlot(t *testing.T) {
	tab := makeTable()
	var sb strings.Builder
	if err := tab.WritePlot(&sb, 60, 12); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "B") || !strings.Contains(out, "l") {
		t.Fatalf("plot missing markers:\n%s", out)
	}
	if !strings.Contains(out, "B=BEB") {
		t.Fatalf("plot missing legend:\n%s", out)
	}
}

// A non-finite median — an all-failed point, a metric that does not apply
// — must neither blank the plot nor appear on it: the y-range and the
// markers come from the finite medians alone.
func TestWritePlotSkipsNonFiniteMedians(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	beb := func(mid float64) Series {
		return Series{Name: "BEB", Points: []Point{pt(10, 100, 90, 110), pt(20, mid, mid, mid), pt(30, 300, 290, 310)}}
	}
	stb := Series{Name: "STB", Points: []Point{pt(10, 50, 45, 55), pt(20, 260, 250, 270), pt(30, 200, 190, 210)}}
	allNaN := Series{Name: "LB", Points: []Point{pt(10, nan, nan, nan), pt(30, nan, nan, nan)}}
	for _, tc := range []struct {
		name   string
		series []Series
		yRange string
		counts map[rune]int // markers expected in the plot area
	}{
		{"nan point", []Series{beb(nan), stb}, "[y: 50..300]", map[rune]int{'B': 2, 'l': 3}},
		{"inf point", []Series{beb(inf), stb}, "[y: 50..300]", map[rune]int{'B': 2, 'l': 3}},
		{"all-nan series", []Series{beb(200), stb, allNaN}, "[y: 50..300]", map[rune]int{'B': 3, 'l': 3, 'L': 0}},
		{"no finite median", []Series{allNaN}, "[y: 0..1]", map[rune]int{'B': 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := Table{ID: "fig0", Title: "test", XLabel: "n", Series: tc.series}
			var sb strings.Builder
			if err := tab.WritePlot(&sb, 60, 12); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			if !strings.Contains(out, tc.yRange) {
				t.Fatalf("plot header lacks %s:\n%s", tc.yRange, out)
			}
			got := map[rune]int{}
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "|") {
					for _, r := range strings.Trim(line, "| ") {
						got[r]++
					}
				}
			}
			for m, want := range tc.counts {
				if got[m] != want {
					t.Errorf("marker %c placed %d times, want %d:\n%s", m, got[m], want, out)
				}
			}
		})
	}
}

func TestSeriesValue(t *testing.T) {
	s := makeTable().Series[0]
	if s.Value(10) != 100 {
		t.Fatal("Value(10)")
	}
	if v := s.Value(99); !math.IsNaN(v) {
		t.Fatalf("Value(99) = %v, want NaN", v)
	}
}
