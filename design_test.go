package vortex_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	designFence    = regexp.MustCompile("(?ms)^```.*?^```[^\n]*$")
	designSpan     = regexp.MustCompile("`([^`]+)`")
	designPRNumber = regexp.MustCompile(`\bPRs? ?\d+`)
	designPath     = regexp.MustCompile(`/|\.(go|md|json|txt|sh)$`)
	designSymbol   = regexp.MustCompile(`^(?:(?:Test|Fuzz|Benchmark)\w*|[A-Za-z_]\w*\.[A-Za-z_]\w*)(?:\(\))?$`)
	designWord     = regexp.MustCompile(`\w+`)
	designCitation = regexp.MustCompile(`DESIGN\.md(?:'s)?[\s,(]*"([^"]+)"`)
)

// TestDesignReferences holds DESIGN.md to the tree it describes: no
// heading carries a PR number (history lives in CHANGES.md); every
// backticked path exists; every backticked pkg.Name, Type.Method, Test…,
// Fuzz… or Benchmark… is a word of some .go file, and every ## section
// names at least one such item; and every Go comment that cites a
// DESIGN.md section by its quoted title names an existing heading.
func TestDesignReferences(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := designFence.ReplaceAllString(string(raw), "")

	words := map[string]bool{}
	var goFiles []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, w := range designWord.FindAllString(string(src), -1) {
			words[w] = true
		}
		goFiles = append(goFiles, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	headings := map[string]bool{}
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		if designPRNumber.MatchString(line) {
			t.Errorf("DESIGN.md heading %q carries a PR number; history belongs in CHANGES.md", line)
		}
		headings[strings.TrimSpace(strings.TrimLeft(line, "#"))] = true
	}

	for _, section := range strings.Split("\n"+doc, "\n## ")[1:] {
		title, _, _ := strings.Cut(section, "\n")
		named := false
		for _, m := range designSpan.FindAllStringSubmatch(section, -1) {
			span := m[1]
			switch {
			case strings.ContainsAny(span, " \t\n"):
			case designPath.MatchString(span):
				if matches, _ := filepath.Glob(span); len(matches) == 0 {
					t.Errorf("DESIGN.md %q: path `%s` does not exist", title, span)
				}
			case designSymbol.MatchString(span):
				named = true
				for _, w := range strings.Split(strings.TrimSuffix(span, "()"), ".") {
					if !words[w] {
						t.Errorf("DESIGN.md %q: `%s` names %s, which no .go file has", title, span, w)
					}
				}
			}
		}
		if !named {
			t.Errorf("DESIGN.md %q names no pkg.Name, Type.Method, Test, Fuzz or Benchmark item", title)
		}
	}

	cited := 0
	fset := token.NewFileSet()
	for _, path := range goFiles {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, m := range designCitation.FindAllStringSubmatch(cg.Text(), -1) {
				cited++
				if title := strings.Join(strings.Fields(m[1]), " "); !headings[title] {
					t.Errorf("%s cites DESIGN.md section %q, which has no heading", fset.Position(cg.Pos()), title)
				}
			}
		}
	}
	if cited == 0 {
		t.Error("no Go comment cites a DESIGN.md section by title; the citation pattern no longer matches the tree")
	}
}
