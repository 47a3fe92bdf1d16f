package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Report is a serialisable record of one experiment run: the rendered
// table plus enough configuration to reproduce it. `sweep -report`
// renders one per experiment into a combined markdown document.
type Report struct {
	Name    string     `json:"name"`
	Title   string     `json:"title"`
	Seed    uint64     `json:"seed"`
	Trials  int        `json:"trials"`
	Scale   int        `json:"scale"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// NewReport captures a rendered table under the given experiment name
// and configuration.
func NewReport(name string, cfg ExpConfig, t *Table) Report {
	cfg = cfg.withDefaults()
	r := Report{
		Name:    name,
		Title:   t.Title,
		Seed:    cfg.Seed,
		Trials:  cfg.Trials,
		Scale:   cfg.Scale,
		Headers: append([]string(nil), t.Headers...),
	}
	for _, row := range t.Rows {
		r.Rows = append(r.Rows, append([]string(nil), row...))
	}
	return r
}

// WriteJSON serialises the report.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a report written by WriteJSON.
func ReadReport(rd io.Reader) (Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return Report{}, fmt.Errorf("sim: decode report: %w", err)
	}
	return r, nil
}

// Markdown renders the report as a markdown section with a pipe table.
func (r Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", strings.ToUpper(r.Name), r.Title)
	fmt.Fprintf(&b, "_seed %d, %d trials, scale %d_\n\n", r.Seed, r.Trials, r.Scale)
	b.WriteString("| " + strings.Join(r.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(r.Headers)) + "\n")
	for _, row := range r.Rows {
		cells := make([]string, len(r.Headers))
		for i := range cells {
			if i < len(row) {
				cells[i] = row[i]
			}
		}
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	b.WriteString("\n")
	return b.String()
}

// Table reconstructs the rendered table from the report.
func (r Report) Table() *Table {
	t := NewTable(r.Title, r.Headers...)
	for _, row := range r.Rows {
		cells := make([]interface{}, len(row))
		for i, c := range row {
			cells[i] = c
		}
		t.AddRow(cells...)
	}
	return t
}
