package sim

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned-text table for experiment output.
// The JSON tags give Result's encoding a stable lower-case schema.
type Table struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := len(t.Headers) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Figure1Table renders Figure 1 series in the paper's normalised-cover
// layout, one row per (degree, n) point.
func Figure1Table(series []Figure1Series) *Table {
	t := NewTable(
		"Figure 1: normalised cover time of E-process on d-regular graphs",
		"degree", "n", "C_V/n", "stderr", "trials", "fit")
	for _, s := range series {
		fit := ""
		if s.HasFit {
			if s.Verdict == "nlogn" {
				fit = s.Growth.NLogN.String()
			} else {
				fit = s.Growth.Linear.String()
			}
		}
		for i, p := range s.Points {
			label := ""
			if i == len(s.Points)-1 {
				label = fit
			}
			t.AddRow(p.Degree, p.N, p.Normalized, p.StdErr, p.Trials, label)
		}
	}
	return t
}
