// Docs gates: every fenced `yaml` block in README.md and docs/*.md
// must validate as a complete scenario spec (a documented snippet is a
// runnable snippet), and every relative markdown link must resolve to
// a real file. CI runs these in the docs job.
package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

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
