package repro

import (
	"encoding/csv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// repoFiles lists every file of the repository outside dot directories
// (.git, .github, .claude), as slash-separated paths relative to its root
// in lexical order: both modules' Go files, their testdata included.
func repoFiles(t *testing.T) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		paths = append(paths, filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

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

// TestDocsNameWhatExists: every Test, Benchmark and Fuzz function that
// DESIGN.md, README.md or the verify skill names exists (a name ending in
// * names a prefix), every name in a -run, -bench or -fuzz pattern of
// ci.yml starts a function's name (or is one, ending in $), every section
// of DESIGN.md that a Go comment cites is a heading there (§5h) or a
// numbered item under one (§5a.4), and
// every ROADMAP direction that the documents and CI cite ("ROADMAP 7",
// "ROADMAP direction 2", "ROADMAP 3-II(b)") is a numbered direction in
// ROADMAP.md that has the part and the lettered item cited. Go files
// under bench/ define names but are not searched for citations.
func TestDocsNameWhatExists(t *testing.T) {
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	citeRE := regexp.MustCompile(`DESIGN(?:\.md)? §([0-9]+[a-z]?(?:\.[0-9]+)?)`)
	defined := map[string]bool{}
	var cites [][2]string // file, section
	for _, path := range repoFiles(t) {
		if !strings.HasSuffix(path, ".go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range funcRE.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		if !strings.HasPrefix(path, "bench/") {
			for _, m := range citeRE.FindAllSubmatch(src, -1) {
				cites = append(cites, [2]string{path, string(m[1])})
			}
		}
	}

	nameRE := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*\*?`)
	for _, doc := range []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range nameRE.FindAllString(string(text), -1) {
			prefix, wild := strings.CutSuffix(name, "*")
			found := defined[name]
			for d := range defined {
				found = found || wild && strings.HasPrefix(d, prefix)
			}
			if !found {
				t.Errorf("%s names %s, which no Go file defines", doc, name)
			}
		}
	}

	// A CI step whose -run, -bench or -fuzz pattern names no function
	// runs nothing and passes. go test matches a pattern unanchored, so
	// an alternative runs every function whose name it starts, or only
	// itself when it ends in $.
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	patternRE := regexp.MustCompile(`-(?:run|bench|fuzz) +(?:'([^']*)'|([^\s']+))`)
	altRE := regexp.MustCompile(`^\^?((?:Test|Benchmark|Fuzz)[A-Z]\w*)(\$?)$`)
	names := 0
	for _, m := range patternRE.FindAllStringSubmatch(string(ci), -1) {
		for _, alt := range strings.Split(m[1]+m[2], "|") {
			a := altRE.FindStringSubmatch(alt)
			if a == nil {
				continue
			}
			names++
			found := defined[a[1]]
			for d := range defined {
				found = found || a[2] == "" && strings.HasPrefix(d, a[1])
			}
			if !found {
				t.Errorf("ci.yml runs %s, which no Go function's name starts with", alt)
			}
		}
	}
	if names == 0 {
		t.Error("ci.yml names no test, benchmark or fuzz target: the pattern is broken")
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headRE := regexp.MustCompile(`^## ([0-9]+[a-z]?)\. `)
	itemRE := regexp.MustCompile(`^([0-9]+)\. `)
	sections, under := map[string]bool{}, ""
	for _, ln := range strings.Split(string(design), "\n") {
		if m := headRE.FindStringSubmatch(ln); m != nil {
			under = m[1]
			sections[under] = true
		} else if m := itemRE.FindStringSubmatch(ln); m != nil && under != "" {
			sections[under+"."+m[1]] = true
		}
	}
	for _, c := range cites {
		if !sections[c[1]] {
			t.Errorf("%s cites DESIGN.md §%s, which is neither a heading nor a numbered item there", c[0], c[1])
		}
	}
	if len(cites) == 0 {
		t.Error("no Go comment cites DESIGN.md: the citation pattern is broken")
	}

	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	dirRE := regexp.MustCompile(`^- \*\*([0-9]+)\. `)
	partRE := regexp.MustCompile(`^ +- \*\*([0-9]+-[IVX]+)\. `)
	letterRE := regexp.MustCompile(`^ +- \*{1,2}\(([a-z])\)`)
	items, dir := map[string]bool{}, ""
	for _, ln := range strings.Split(string(roadmap), "\n") {
		if m := dirRE.FindStringSubmatch(ln); m != nil {
			dir = m[1]
			items[dir] = true
		} else if m := partRE.FindStringSubmatch(ln); m != nil && dir != "" {
			items[m[1]] = true
		} else if m := letterRE.FindStringSubmatch(ln); m != nil && dir != "" {
			items[dir+"("+m[1]+")"] = true
		}
	}
	roadmapRE := regexp.MustCompile(`ROADMAP\s+(?:directions?\s+)?(([0-9]+)(?:-[IVX]+)?)(?:\(([a-z])\))?`)
	n := 0
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range roadmapRE.FindAllStringSubmatch(string(text), -1) {
			n++
			if !items[m[1]] {
				t.Errorf("%s cites %q: ROADMAP.md has no direction %s", doc, m[0], m[1])
			} else if m[3] != "" && !items[m[2]+"("+m[3]+")"] {
				t.Errorf("%s cites %q: ROADMAP.md's direction %s has no item (%s)", doc, m[0], m[2], m[3])
			}
		}
	}
	if n == 0 || len(items) == 0 {
		t.Errorf("%d ROADMAP citations against %d directions and items: a pattern is broken", n, len(items))
	}
}

// unusedAllowed are the names TestNoUnusedExports lets stand without a
// production caller outside their package: test accessors that another
// package's tests need, which an export_test.go cannot give them.
var unusedAllowed = map[string]string{
	"repro/internal/buffer.Engine.ResidentIDs":     "core's, experiment's and obs/shadow's tests compare resident sets",
	"repro/internal/buffer.Engine.Contains":        "core's policy tests check that one page is resident",
	"repro/internal/buffer.FrameTable.ResidentIDs": "obs/shadow's tests compare a ghost cache's resident set, which lives in one",
	"repro/internal/core.LRUK.HistRecords":         "experiment's TestHistMemory counts LRU-2's retained history records",
	"repro/internal/storage.ErrPageNotFound":       "buffer's TestGetUnknownPage checks that a miss on a missing page wraps it",
}

// TestNoUnusedExports keeps code with no caller out of the tree. It
// type-checks the non-test files of both modules (this one and bench/)
// with go/types, fed by `go list -export -deps -json`, and fails on:
//
//   - dead code: a top-level function, method, type, constant or
//     variable, exported or not, that nothing counted below references.
//     Delete it, or move it into a _test.go or export_test.go file if it
//     is a test oracle or helper;
//   - package-local exports: an exported name only its own package
//     references, unless that package's black-box tests (package x_test)
//     use it. Unexport it.
//
// What counts as a reference:
//
//   - Callers: the non-test files of either module, reached from a main
//     or init function, a blank variable, or the root package's Example
//     (the README quickstart, whose output is checked). bench/ counts:
//     it is the only caller of some of the storage API.
//   - Methods: one is referenced if it is selected, or if it implements
//     a method of an interface a production file names, converts to or
//     calls through (named or literal, of either module or the standard
//     library), or is one the standard library finds by a dynamic
//     assertion: String, Error, ServeHTTP, MarshalJSON.
//   - Types: one is referenced if it is named, if one of its methods or
//     fields is referenced, or, for the package-local rule, if it can be
//     reached from the signature or exported fields of a name referenced
//     from outside (rtree.Params through rtree.DefaultParams()).
//
// A reference from a declaration to itself does not count. Exceptions
// are in unusedAllowed, each with its reason; an entry the checker no
// longer reports fails too, so that the list cannot outlive its reason.
func TestNoUnusedExports(t *testing.T) {
	t.Run("fixture", func(t *testing.T) {
		u := findUnusedNames(t, filepath.Join("testdata", "unusedexports"))
		want := unusedNames{
			dead:  []string{"fixture/lib.TestOnly", "fixture/lib.Unused"},
			local: []string{"fixture/lib.Scale"},
		}
		if !reflect.DeepEqual(u, want) {
			t.Errorf("fixture: dead %v, local %v; want dead %v, local %v", u.dead, u.local, want.dead, want.local)
		}
	})

	u := findUnusedNames(t, ".", "bench")
	reported := map[string]bool{}
	for _, name := range u.dead {
		reported[name] = true
		if unusedAllowed[name] == "" {
			t.Errorf("%s has no non-test caller: delete it, or move it into a _test.go file", name)
		}
	}
	for _, name := range u.local {
		reported[name] = true
		if unusedAllowed[name] == "" {
			t.Errorf("%s is used only inside its own package: unexport it", name)
		}
	}
	for name := range unusedAllowed {
		if !reported[name] {
			t.Errorf("unusedAllowed names %s, which the check no longer reports: remove the entry", name)
		}
	}
}
