package spec

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestDocsSpecKeyTable pins docs/spec-reference.md to the schema: every
// Keys entry and every field of the list records has a row, the row's
// type column states the key's value kind and, for an integer, its
// range, and an Enum row names every word it admits. A list field's
// default column reads "— (required)" exactly when the field is
// Required.
func TestDocsSpecKeyTable(t *testing.T) {
	raw, err := os.ReadFile("../../docs/spec-reference.md")
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
	checkDocRows(t, rows, "", Keys)
	checkDocRows(t, rows, mixRecord.path, mixRecord.fields)
	checkDocRows(t, rows, flowRecord.path, flowRecord.fields)
	checkDocRows(t, rows, faultRecord.path, faultRecord.fields)
}

// checkDocRows checks the reference's rows for fields, the keys of the
// list block at list ("" for the scalar keys), which the reference
// writes as "list[].key".
func checkDocRows[T any](t *testing.T, rows map[string][]string, list string, fields []Field[T]) {
	t.Helper()
	for _, f := range fields {
		path := f.Path
		if list != "" {
			path = list + "[]" + f.Path[len(list):]
		}
		row, ok := rows[path]
		if !ok {
			t.Errorf("docs/spec-reference.md has no row for %q", path)
			continue
		}
		if want := docType(f.Kind, f.Min, f.Max); row[0] != want {
			t.Errorf("docs/spec-reference.md: %q has type %q, want %q", path, row[0], want)
		}
		if list != "" && (row[1] == "— (required)") != f.Required {
			t.Errorf("docs/spec-reference.md: %q has default %q, but Required is %v", path, row[1], f.Required)
		}
		for _, v := range f.Values {
			if !strings.Contains(strings.Join(row, "|"), "`"+v+"`") {
				t.Errorf("docs/spec-reference.md: the %q row does not name %q", path, v)
			}
		}
	}
}

// docType is the type column the reference gives a key.
func docType(kind Kind, lo, hi int64) string {
	switch kind {
	case Float:
		return "float"
	case Rate:
		return "rate"
	case Duration:
		return "duration"
	case Bool:
		return "bool"
	case Enum, String:
		return "string"
	case IPv4:
		return "IPv4"
	}
	switch {
	case lo == math.MinInt64 && hi == math.MaxInt64:
		return "int"
	case hi == math.MaxInt32:
		return fmt.Sprintf("int ≥ %d", lo)
	}
	return fmt.Sprintf("int %s–%s", docInt(lo), docInt(hi))
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
