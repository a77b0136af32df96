// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII). Each driver returns a Report that renders as markdown;
// cmd/longexp prints them and the root bench suite wraps them in testing.B
// benchmarks.
//
// Every number is measured: real CPU execution of the engine and its
// operators on sim-scale models (model.Sim), which keep the paper models'
// activation and sparsity structure at a size a CPU trains in seconds.
package experiments

import (
	"fmt"
	"strings"
	"time"
	"unicode/utf8"
)

// Section is one table of a report.
type Section struct {
	Name    string
	Headers []string
	Rows    [][]string
}

// Report is one regenerated paper artifact.
type Report struct {
	ID       string // e.g. "table1", "fig7"
	Title    string
	Sections []Section
	Notes    []string
}

// AddSection appends a table.
func (r *Report) AddSection(name string, headers []string, rows [][]string) {
	r.Sections = append(r.Sections, Section{Name: name, Headers: headers, Rows: rows})
}

// AddNote appends a free-form note (assumptions, paper comparison).
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the report.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	for _, s := range r.Sections {
		if s.Name != "" {
			fmt.Fprintf(&b, "### %s\n\n", s.Name)
		}
		writeTable(&b, s.Headers, s.Rows)
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "> %s\n", n)
	}
	if len(r.Notes) > 0 {
		b.WriteString("\n")
	}
	return b.String()
}

func writeTable(b *strings.Builder, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = width(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && width(c) > widths[i] {
				widths[i] = width(c)
			}
		}
	}
	pad := func(s string, w int) string { return s + strings.Repeat(" ", w-width(s)) }
	b.WriteString("|")
	for i, h := range headers {
		b.WriteString(" " + pad(h, widths[i]) + " |")
	}
	b.WriteString("\n|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2) + "|")
	}
	b.WriteString("\n")
	for _, row := range rows {
		b.WriteString("|")
		for i, c := range row {
			w := width(c)
			if i < len(widths) {
				w = widths[i]
			}
			b.WriteString(" " + pad(c, w) + " |")
		}
		b.WriteString("\n")
	}
}

// width counts runes, so cells holding "→" still line up.
func width(s string) int { return utf8.RuneCountInString(s) }

// Formatting helpers shared by the drivers.

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

func msF(seconds float64) string {
	return fmt.Sprintf("%.1f", seconds*1000)
}

func pct(part, total float64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*part/total)
}

func speedup(base, opt float64) string {
	if opt == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", base/opt)
}

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

func pctv(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
