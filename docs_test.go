// Docs gates: every fenced `yaml` block in README.md and docs/*.md
// must validate as a complete scenario spec (a documented snippet is a
// runnable snippet), and every relative markdown link must resolve to
// a real file. CI runs these in the docs job.
package repro

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/spec"
)

// docFiles returns README.md plus every markdown file under docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	more, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, more...)
	if len(more) == 0 {
		t.Fatal("docs/ holds no markdown files")
	}
	return files
}

// yamlSnippet is a fenced block tagged exactly `yaml`, with the line
// its content starts on.
type yamlSnippet struct {
	file string
	line int
	body string
}

// yamlSnippets extracts fenced blocks whose info string is exactly
// "yaml". Blocks tagged anything else (sh, go, plain) are skipped.
func yamlSnippets(t *testing.T, file string) []yamlSnippet {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	var out []yamlSnippet
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```yaml" {
			continue
		}
		var body strings.Builder
		start := i + 2 // 1-based line number of the first content line
		for i++; i < len(lines); i++ {
			if strings.TrimSpace(lines[i]) == "```" {
				break
			}
			body.WriteString(lines[i])
			body.WriteByte('\n')
		}
		if i == len(lines) {
			t.Fatalf("%s:%d: unterminated ```yaml block", file, start-1)
		}
		out = append(out, yamlSnippet{file: file, line: start, body: body.String()})
	}
	return out
}

func TestDocsSpecSnippets(t *testing.T) {
	total := 0
	for _, file := range docFiles(t) {
		for _, sn := range yamlSnippets(t, file) {
			total++
			name := fmt.Sprintf("%s:%d", sn.file, sn.line)
			d, err := spec.Parse([]byte(sn.body), name)
			if err == nil {
				_, _, err = d.Compile()
			}
			if err != nil {
				t.Errorf("doc snippet does not validate: %v", err)
			}
		}
	}
	if total == 0 {
		t.Fatal("found no ```yaml snippets in the docs — extraction is broken")
	}
	t.Logf("validated %d yaml snippets", total)
}

var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

func TestDocsMarkdownLinks(t *testing.T) {
	for _, file := range docFiles(t) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		inFence := false
		for i, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.HasPrefix(target, "http://") ||
					strings.HasPrefix(target, "https://") ||
					strings.HasPrefix(target, "mailto:") ||
					strings.HasPrefix(target, "#") {
					continue
				}
				if j := strings.IndexByte(target, '#'); j >= 0 {
					target = target[:j]
				}
				resolved := filepath.Join(filepath.Dir(file), target)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s:%d: link target %q does not resolve (%v)", file, i+1, m[1], err)
				}
			}
		}
	}
}

// TestDocsSpecKeyTable pins docs/spec-reference.md to spec.Keys: every
// scalar key has a row, and the row's type column states the key's
// value kind and, for an integer, its range. A pattern row names every
// pattern.
func TestDocsSpecKeyTable(t *testing.T) {
	raw, err := os.ReadFile("docs/spec-reference.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{} // key path → cells after the key
	for _, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows[strings.Trim(cells[1], "`")] = cells[2:]
	}
	for _, k := range spec.Keys {
		row, ok := rows[k.Path]
		if !ok {
			t.Errorf("docs/spec-reference.md has no row for %q", k.Path)
			continue
		}
		if want := docType(k); row[0] != want {
			t.Errorf("docs/spec-reference.md: %q has type %q, want %q", k.Path, row[0], want)
		}
		if k.Kind == spec.Pattern {
			for _, p := range []scenario.Pattern{scenario.PatternLineRate, scenario.PatternCBR, scenario.PatternSoftCBR, scenario.PatternPoisson, scenario.PatternBursts} {
				if !strings.Contains(strings.Join(row, "|"), "`"+string(p)+"`") {
					t.Errorf("docs/spec-reference.md: the %q row does not name pattern %q", k.Path, p)
				}
			}
		}
	}
}

// docType is the type column the reference gives a key.
func docType(k spec.Key) string {
	switch k.Kind {
	case spec.Rate:
		return "rate"
	case spec.Duration:
		return "duration"
	case spec.Bool:
		return "bool"
	case spec.Pattern:
		return "string"
	}
	switch {
	case k.Min == math.MinInt64 && k.Max == math.MaxInt64:
		return "int"
	case k.Max == math.MaxInt32:
		return fmt.Sprintf("int ≥ %d", k.Min)
	}
	return fmt.Sprintf("int %s–%s", docInt(k.Min), docInt(k.Max))
}

// docInt writes powers of two from 2¹⁶ up as 2 with a superscript
// exponent, as the reference does.
func docInt(n int64) string {
	if n < 1<<16 || n&(n-1) != 0 {
		return strconv.FormatInt(n, 10)
	}
	exp := strconv.Itoa(bits.TrailingZeros64(uint64(n)))
	return "2" + strings.NewReplacer("0", "⁰", "1", "¹", "2", "²", "3", "³", "4", "⁴", "5", "⁵", "6", "⁶", "7", "⁷", "8", "⁸", "9", "⁹").Replace(exp)
}
