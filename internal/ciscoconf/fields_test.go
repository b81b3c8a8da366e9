package ciscoconf

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// TestAppendFieldsMatchesStringsFields compares appendFields with
// strings.Fields on random lines over an alphabet of letters, every ASCII
// space, the Latin-1 spaces U+0085 and U+00A0, a wider space (U+3000), a
// zero-width space that is not unicode.IsSpace (U+200B), and invalid
// UTF-8 (a lone 0xff, and 0xc2, the lead byte of the Latin-1 spaces).
// Each call appends to a slice left over from the previous line, as Parse
// reuses one.
func TestAppendFieldsMatchesStringsFields(t *testing.T) {
	alphabet := []string{"a", "b", "x9", " ", " ", "\t", "\n", "\v", "\f", "\r",
		"\u0085", "\u00a0", "\u3000", "\u200b", "\xff", "\xc2"}
	var reused []string
	wide := 0
	line := func(b []byte) string {
		var sb strings.Builder
		for _, c := range b {
			sb.WriteString(alphabet[int(c)%len(alphabet)])
		}
		if strings.ContainsFunc(sb.String(), func(r rune) bool { return r > 0x7f && unicode.IsSpace(r) }) {
			wide++
		}
		return sb.String()
	}
	got := func(b []byte) []string {
		reused = appendFields(reused[:0], line(b))
		return append([]string{}, reused...)
	}
	want := func(b []byte) []string { return strings.Fields(line(b)) }
	if err := quick.CheckEqual(got, want, &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if wide < 2000 {
		t.Fatalf("only %d of 40000 lines held a non-ASCII space", wide)
	}
}
