package sim

import (
	"strings"
	"testing"
)

func TestReportMarkdown(t *testing.T) {
	tb := NewTable("Demo table", "n", "value")
	tb.AddRow(100, 2.5)
	tb.AddRow(200, 3.5)
	res := &Result{Name: "demo", Seed: 7, Trials: 3, Scale: 2, Table: tb}
	want := "## DEMO — Demo table\n\n" +
		"_seed 7, 3 trials, scale 2_\n\n" +
		"| n | value |\n" +
		"|---|---|\n" +
		"| 100 | 2.5 |\n" +
		"| 200 | 3.5 |\n\n"
	if md := res.Markdown(); md != want {
		t.Errorf("markdown:\n%s\nwant:\n%s", md, want)
	}
	// A short row is padded to the header width.
	tb.Rows = append(tb.Rows, []string{"300"})
	if md := res.Markdown(); !strings.HasSuffix(md, "| 300 |  |\n\n") {
		t.Errorf("short row not padded:\n%s", md)
	}
}
