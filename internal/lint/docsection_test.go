package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// maxDocLines bounds DESIGN.md and EXPERIMENTS.md: each describes the tree
// as it is, and its history lives in CHANGES.md and git.
const maxDocLines = 700

// citeDocs are the project's own documents whose section cites are held;
// every .go and .sh file outside bench/ and testdata is read as well.
var citeDocs = []string{"README.md", "ROADMAP.md", "DESIGN.md", "EXPERIMENTS.md", "CHANGES.md", ".claude/skills/verify/SKILL.md"}

var (
	// sectionCite is a document name followed by a quoted section title,
	// possibly after 's, a comma or an opening parenthesis, and possibly
	// with shell-escaped quotes. The title may wrap onto a comment line.
	sectionCite = regexp.MustCompile(`\b(DESIGN|EXPERIMENTS)(?:\.md)?(?:'s)?,?\s+\(?\\?"([^"\\]{1,120})\\?"`)
	wrapped     = regexp.MustCompile(`\s*\n\s*(?://|#)?\s*`)
	boldLeadIn  = regexp.MustCompile(`^(?:[*-] |\d+\. )?\*\*(.+?)\*\*`)
	tableRow    = regexp.MustCompile(`^\|\s*([^|]+?)\s*\|`)
)

// TestDocSectionCites holds every quoted section cite of DESIGN.md or
// EXPERIMENTS.md in the code, the scripts and the project's documents to
// that file: the cited title must start a heading or a bold lead-in there.
// CHANGES.md is history, so only its EXPERIMENTS.md cites are held, and a
// row label of EXPERIMENTS.md's trajectory table also answers them: a
// per-experiment log folded into that table keeps its title as the row's
// label. It also bounds both files to maxDocLines lines.
func TestDocSectionCites(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	titles, rows := map[string][]string{}, map[string][]string{}
	for _, doc := range []string{"DESIGN", "EXPERIMENTS"} {
		data, err := os.ReadFile(filepath.Join(root, doc+".md"))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), "\n"); n > maxDocLines {
			t.Errorf("%s.md is %d lines; at most %d: history goes to CHANGES.md, a measurement to the trajectory table", doc, n, maxDocLines)
		}
		titles[doc], rows[doc] = sectionTitles(string(data))
	}
	files := append([]string(nil), citeDocs...)
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == ".git" || rel == "bench" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, ".sh") {
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			t.Fatal(err)
		}
		history := f == "CHANGES.md"
		for _, c := range sectionCites(string(data)) {
			if history && c.doc == "DESIGN" {
				continue
			}
			labels := titles[c.doc]
			if history {
				labels = append(labels[:len(labels):len(labels)], rows[c.doc]...)
			}
			if !citeResolves(c.title, labels) {
				t.Errorf("%s:%d: %s.md %q starts no heading or bold lead-in of %[3]s.md", f, c.line, c.doc, c.title)
			}
		}
	}
}

// docCite is one quoted section cite.
type docCite struct {
	doc, title string
	line       int
}

// sectionCites returns every section cite in text, its title's wrapped
// lines joined by one space.
func sectionCites(text string) []docCite {
	var cites []docCite
	for _, m := range sectionCite.FindAllStringSubmatchIndex(text, -1) {
		cites = append(cites, docCite{
			doc:   text[m[2]:m[3]],
			title: wrapped.ReplaceAllString(text[m[4]:m[5]], " "),
			line:  strings.Count(text[:m[0]], "\n") + 1,
		})
	}
	return cites
}

// sectionTitles returns the headings and bold lead-ins of a document
// outside its fenced blocks, and the row labels of its "Trajectory" table
// below the header.
func sectionTitles(text string) (titles, rows []string) {
	fenced, trajectory, body := false, false, false
	for _, line := range strings.Split(text, "\n") {
		trim := strings.TrimSpace(line)
		if strings.HasPrefix(trim, "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if heading.MatchString(line) {
			title := strings.TrimLeft(line, "# ")
			titles = append(titles, title)
			trajectory, body = strings.HasPrefix(title, "Trajectory"), false
			continue
		}
		if m := boldLeadIn.FindStringSubmatch(trim); m != nil {
			titles = append(titles, m[1])
		}
		if m := tableRow.FindStringSubmatch(trim); trajectory && m != nil {
			if body {
				rows = append(rows, strings.Trim(m[1], "*"))
			}
			body = body || strings.HasPrefix(m[1], "-") // the row under the header
		}
	}
	return titles, rows
}

// citeResolves reports whether one of titles starts with the cited title.
func citeResolves(title string, titles []string) bool {
	for _, s := range titles {
		if strings.HasPrefix(s, title) {
			return true
		}
	}
	return false
}

// TestDocSectionCitesParser runs the cite scanner and the title reader on
// small documents. The fixtures write a quote as ~ so that this file holds
// no cite of its own.
func TestDocSectionCitesParser(t *testing.T) {
	q := func(s string) string { return strings.ReplaceAll(s, "~", `"`) }
	var got []string
	for _, c := range sectionCites(q("see DESIGN.md ~Static analysis~, DESIGN.md (~Cost-model calibration~),\n" +
		"// DESIGN.md's ~Allocation\n// budgets~ and EXPERIMENTS.md ~swiftd serving path~; DESIGN ~Reachability~;\n" +
		`echo "list it in DESIGN.md \~Unreached on purpose\~"` + "\nDESIGN.md, ~Data-plane performance~")) {
		got = append(got, fmt.Sprintf("%d %s %s", c.line, c.doc, c.title))
	}
	want := []string{
		"1 DESIGN Static analysis", "1 DESIGN Cost-model calibration", "2 DESIGN Allocation budgets",
		"3 EXPERIMENTS swiftd serving path", "3 DESIGN Reachability", "4 DESIGN Unreached on purpose",
		"5 DESIGN Data-plane performance",
	}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("cites = %q, want %q", got, want)
	}

	doc := "# Experiments\n## Chaos soak — recovery\n**Unreached on purpose.** Everything\n" +
		"* **Cost-model calibration.** The constants\n```\n## not a heading\n**not a lead-in**\n```\n" +
		"## Trajectory\n| row | PR |\n|---|---|\n| Kernel scratch | 53 |\n| **Delta fair share** | 52 |\n## After\n| Not a row | 1 |\n"
	titles, rows := sectionTitles(doc)
	if want := "Experiments; Chaos soak — recovery; Unreached on purpose.; Cost-model calibration.; Trajectory; After"; strings.Join(titles, "; ") != want {
		t.Errorf("titles = %q, want %q", titles, want)
	}
	if want := "Kernel scratch; Delta fair share"; strings.Join(rows, "; ") != want {
		t.Errorf("rows = %q, want %q", rows, want)
	}
	for _, tc := range []struct {
		title string
		want  bool
	}{{"Chaos soak", true}, {"Unreached on purpose", true}, {"Cost-model", true}, {"Control plane", false}, {"not a heading", false}} {
		if got := citeResolves(tc.title, titles); got != tc.want {
			t.Errorf("citeResolves(%q) = %v, want %v", tc.title, got, tc.want)
		}
	}
}
