package repro

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// readCells reads one checked-in results/ CSV as row name → column name
// → cell, as printed.
func readCells(t *testing.T, path string) map[string]map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(recs) < 2 {
		t.Fatalf("%s: no rows", path)
	}
	header := recs[0]
	rows := make(map[string]map[string]string)
	for _, rec := range recs[1:] {
		row := make(map[string]string)
		for i, cell := range rec[1:] {
			row[header[i+1]] = cell
		}
		rows[rec[0]] = row
	}
	return rows
}

// readResult is readCells with the cells parsed.
func readResult(t *testing.T, path string) map[string]map[string]float64 {
	t.Helper()
	rows := make(map[string]map[string]float64)
	for name, cells := range readCells(t, path) {
		row := make(map[string]float64)
		for col, cell := range cells {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("%s: row %s: %v", path, name, err)
			}
			row[col] = v
		}
		rows[name] = row
	}
	return rows
}

// TestResultsASBNeverWorseThanLRU is the reproduction's headline as an
// assertion on the checked-in figures (CI keeps results/ equal to what
// the code prints): ASB's gain over LRU is ≥ 0 in all 44 cells of Fig. 13.
func TestResultsASBNeverWorseThanLRU(t *testing.T) {
	files, err := filepath.Glob("results/fig13-*.csv")
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, path := range files {
		rows := readResult(t, path)
		for set, row := range rows {
			gain, ok := row["ASB"]
			if !ok {
				t.Fatalf("%s: no ASB column", path)
			}
			cells++
			if gain < 0 {
				t.Errorf("%s: ASB is %.4f %% worse than LRU on %s", path, -gain, set)
			}
		}
	}
	if cells != 44 {
		t.Errorf("checked %d ASB cells in %d files, want 44 in 4", cells, len(files))
	}
}

// TestResultsFig14PhaseOrder pins the part of Fig. 14's ordering that
// EXPERIMENTS.md says reproduces at this scale (INT < U): the candidate
// set is smaller over the intensified windows than over the uniform ones.
func TestResultsFig14PhaseOrder(t *testing.T) {
	rows := readResult(t, "results/fig14.csv")
	const col = "candidate size"
	intensified, ok1 := rows["phase 1 (INT-W-33)"][col]
	uniform, ok2 := rows["phase 2 (U-W-33)"][col]
	if !ok1 || !ok2 {
		t.Fatalf("fig14.csv lacks a phase row or the %q column: %v", col, rows)
	}
	if intensified >= uniform {
		t.Errorf("average candidate size %.2f over INT-W-33, %.2f over U-W-33: want the first below the second", intensified, uniform)
	}
}

// TestResultsAblationBaseline: the ablations' default column is the
// "ASB" of Fig. 13 by another name (ASB:A:0.2 spells out the overflow
// share, ASB:A the criterion), so it prints the same cells byte for byte.
func TestResultsAblationBaseline(t *testing.T) {
	fig13 := readCells(t, "results/fig13-db1-4.7%.csv")
	for path, col := range map[string]string{
		"results/ablation-overflow-4.7%.csv": "ASB:A:0.2",
		"results/ablation-criteria-4.7%.csv": "ASB:A",
	} {
		rows := readCells(t, path)
		for set, row := range fig13 {
			if got := rows[set][col]; got != row["ASB"] {
				t.Errorf("%s: %s %s = %q, fig13-db1-4.7%%.csv ASB = %q", path, set, col, got, row["ASB"])
			}
		}
	}
}

// TestResultsJoin pins the join's two claims. ASB contains the loss the
// pure spatial strategy takes. LRU-2 ties LRU: the join runs as one
// query, so LRU-2 counts every re-reference as correlated, no page gets
// a second uncorrelated reference, and its victim is LRU's.
func TestResultsJoin(t *testing.T) {
	row := readResult(t, "results/join.csv")["join"]
	if row["ASB"] <= row["A"] {
		t.Errorf("join: ASB gains %.4f %%, A %.4f %%: want ASB above A", row["ASB"], row["A"])
	}
	if row["LRU-2"] != 0 {
		t.Errorf("join: LRU-2 gains %.4f %% over LRU, want exactly 0", row["LRU-2"])
	}
}

// TestExperimentsQuotesResults checks the numbers EXPERIMENTS.md quotes
// from results/, to the digits printed. A table is checked when the line
// before it is a marker <!-- SOURCES -->, SOURCES being one of
//
//	results/F.csv                       rows by first cell, columns by header
//	results/F.csv#COL, results/G.csv#…  one source column per table column
//	results/F.csv@ROW, results/G.csv@…  one source row per table row
func TestExperimentsQuotesResults(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	files := map[string]map[string]map[string]string{}
	quoted := 0
	for i, ln := range lines {
		ln = strings.TrimSpace(ln)
		if !strings.HasPrefix(ln, "<!-- results/") {
			continue
		}
		var srcs []quote
		for _, s := range strings.Split(strings.TrimSuffix(strings.TrimPrefix(ln, "<!-- "), " -->"), ", ") {
			q := quote{}
			q.file, q.col, _ = strings.Cut(s, "#")
			q.file, q.row, _ = strings.Cut(q.file, "@")
			srcs = append(srcs, q)
			if files[q.file] == nil {
				files[q.file] = readCells(t, q.file)
			}
		}
		table := tableAfter(lines[i+1:])
		if len(table) < 2 {
			t.Fatalf("EXPERIMENTS.md:%d: marker not followed by a table", i+1)
		}
		header, body := table[0], table[1:]
		for r, cells := range body {
			for c := 1; c < len(cells); c++ {
				q, ok := source(srcs, r, c, len(body), len(header)-1)
				if !ok {
					t.Fatalf("EXPERIMENTS.md:%d: %d sources fit neither the table nor its %d rows or %d columns",
						i+1, len(srcs), len(body), len(header)-1)
				}
				if q.row == "" {
					q.row = cells[0]
				}
				if q.col == "" {
					q.col = header[c]
				}
				want, ok := files[q.file][q.row][q.col]
				if !ok {
					t.Fatalf("EXPERIMENTS.md:%d: %s has no cell (%q, %q)", i+1, q.file, q.row, q.col)
				}
				if !printedAs(cells[c], want) {
					t.Errorf("EXPERIMENTS.md:%d: %s (%q, %q) is %s, the table prints %s",
						i+1, q.file, q.row, q.col, want, cells[c])
				}
				quoted++
			}
		}
	}
	for _, f := range []string{"crosssam.csv", "updates.csv", "join.csv", "filterrefine.csv",
		"ablation-overflow-4.7%.csv", "ablation-criteria-4.7%.csv"} {
		if files["results/"+f] == nil {
			t.Errorf("EXPERIMENTS.md quotes nothing from results/%s", f)
		}
	}
	t.Logf("%d quoted cells from %d files", quoted, len(files))
}

// quote names one source cell; an empty row or column comes from the
// table itself.
type quote struct{ file, row, col string }

// source resolves the source of body cell (r, c) of a table with nrows
// rows and ncols value columns.
func source(srcs []quote, r, c, nrows, ncols int) (quote, bool) {
	switch {
	case len(srcs) == 1 && srcs[0].row == "" && srcs[0].col == "":
		return srcs[0], true
	case len(srcs) == ncols && srcs[c-1].col != "":
		return srcs[c-1], true
	case len(srcs) == nrows && srcs[r].row != "":
		return srcs[r], true
	}
	return quote{}, false
}

// tableAfter returns the markdown table that starts on the first line of
// lines, as header then body rows of trimmed cells with emphasis and
// escapes dropped; the separator row is skipped.
func tableAfter(lines []string) [][]string {
	var table [][]string
	for _, ln := range lines {
		ln = strings.TrimSpace(ln)
		if !strings.HasPrefix(ln, "|") {
			break
		}
		if strings.HasPrefix(ln, "|---") {
			continue
		}
		var row []string
		for _, cell := range strings.Split(strings.Trim(ln, "|"), "|") {
			cell = strings.NewReplacer("**", "", `\`, "").Replace(cell)
			row = append(row, strings.TrimSpace(cell))
		}
		table = append(table, row)
	}
	return table
}

// printedAs reports whether printed (as EXPERIMENTS.md writes numbers:
// "−" for minus, an optional "%", spaces between thousands) is csvCell
// rounded to the decimals printed has.
func printedAs(printed, csvCell string) bool {
	p := strings.NewReplacer("−", "-", " ", "", "%", "").Replace(printed)
	got, err := strconv.ParseFloat(p, 64)
	if err != nil {
		return false
	}
	want, err := strconv.ParseFloat(csvCell, 64)
	if err != nil {
		return false
	}
	decimals := 0
	if _, frac, ok := strings.Cut(p, "."); ok {
		decimals = len(frac)
	}
	return math.Abs(got-want) <= 0.5*math.Pow(10, -float64(decimals))+1e-9
}
