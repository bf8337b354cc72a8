package experiment

import (
	"fmt"
	"strings"
)

// Table is one rendered experiment result: rows of query sets (or phases)
// against columns of policies/buffer sizes, with numeric cells.
type Table struct {
	// ID is a stable identifier like "fig7-db1-4.7%".
	ID string
	// Title describes the table for humans.
	Title string
	// Unit names the cell metric ("gain vs LRU [%]", "% of A accesses").
	Unit string
	Rows []string
	Cols []string
	// Cells[r][c] is the value for Rows[r] × Cols[c].
	Cells [][]float64
}

// NewTable allocates a table with zeroed cells.
func NewTable(id, title, unit string, rows, cols []string) *Table {
	cells := make([][]float64, len(rows))
	for i := range cells {
		cells[i] = make([]float64, len(cols))
	}
	return &Table{ID: id, Title: title, Unit: unit, Rows: rows, Cols: cols, Cells: cells}
}

// set stores a value by row and column label.
func (t *Table) set(row, col string, v float64) error {
	ri, ci := -1, -1
	for i, r := range t.Rows {
		if r == row {
			ri = i
			break
		}
	}
	for i, c := range t.Cols {
		if c == col {
			ci = i
			break
		}
	}
	if ri < 0 || ci < 0 {
		return fmt.Errorf("experiment: table %s has no cell (%q, %q)", t.ID, row, col)
	}
	t.Cells[ri][ci] = v
	return nil
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s [%s]\n", t.ID, t.Title, t.Unit)
	widths := make([]int, len(t.Cols)+1)
	widths[0] = len("query set")
	for _, r := range t.Rows {
		if len(r) > widths[0] {
			widths[0] = len(r)
		}
	}
	cells := make([][]string, len(t.Rows))
	for ri := range t.Rows {
		cells[ri] = make([]string, len(t.Cols))
		for ci := range t.Cols {
			cells[ri][ci] = fmt.Sprintf("%+.1f", t.Cells[ri][ci])
		}
	}
	for ci, c := range t.Cols {
		widths[ci+1] = len(c)
		for ri := range t.Rows {
			if len(cells[ri][ci]) > widths[ci+1] {
				widths[ci+1] = len(cells[ri][ci])
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0], "query set")
	for ci, c := range t.Cols {
		fmt.Fprintf(&b, "  %*s", widths[ci+1], c)
	}
	b.WriteByte('\n')
	for ri, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0], r)
		for ci := range t.Cols {
			fmt.Fprintf(&b, "  %*s", widths[ci+1], cells[ri][ci])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV formats the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("row")
	for _, c := range t.Cols {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for ri, r := range t.Rows {
		b.WriteString(r)
		for ci := range t.Cols {
			fmt.Fprintf(&b, ",%.4f", t.Cells[ri][ci])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
