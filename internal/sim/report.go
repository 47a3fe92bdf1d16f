package sim

import (
	"fmt"
	"strings"
)

// Markdown renders the result as a markdown section with a pipe table:
// one experiment's part of the `sweep -report` document.
func (r *Result) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", strings.ToUpper(r.Name), r.Table.Title)
	fmt.Fprintf(&b, "_seed %d, %d trials, scale %d_\n\n", r.Seed, r.Trials, r.Scale)
	headers := r.Table.Headers
	b.WriteString("| " + strings.Join(headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(headers)) + "\n")
	for _, row := range r.Table.Rows {
		cells := make([]string, len(headers))
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
