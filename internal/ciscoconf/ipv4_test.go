package ciscoconf

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// splitIPv4 is parseIPv4 as it was written with strings.Split: the
// reference for the accepted set and both error texts.
func splitIPv4(s string) (uint32, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("bad IPv4 %q", s)
	}
	var out uint32
	for _, part := range parts {
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 255 {
			return 0, fmt.Errorf("bad IPv4 octet in %q", s)
		}
		out = out<<8 | uint32(n)
	}
	return out, nil
}

func TestParseIPv4(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint32
		err  string
	}{
		{in: "10.1.2.3", want: 10<<24 | 1<<16 | 2<<8 | 3},
		{in: "0.0.0.0"},
		{in: "255.255.255.255", want: 0xffffffff},
		{in: "+1.2.3.4", want: 1<<24 | 2<<16 | 3<<8 | 4}, // Atoi takes a sign
		{in: "-0.0.0.0"},
		{in: "01.2.3.4", want: 1<<24 | 2<<16 | 3<<8 | 4},
		{in: "-1.2.3.4", err: `bad IPv4 octet in "-1.2.3.4"`},
		{in: "256.2.3.4", err: `bad IPv4 octet in "256.2.3.4"`},
		{in: "1.2.3.256", err: `bad IPv4 octet in "1.2.3.256"`},
		{in: "", err: `bad IPv4 ""`},
		{in: "1.2.3", err: `bad IPv4 "1.2.3"`},
		{in: "1.2.3.4.5", err: `bad IPv4 "1.2.3.4.5"`},
		{in: "1..2.3", err: `bad IPv4 octet in "1..2.3"`},
		{in: "1.2.3.", err: `bad IPv4 octet in "1.2.3."`},
		{in: ".1.2.3", err: `bad IPv4 octet in ".1.2.3"`},
		{in: "a.b.c", err: `bad IPv4 "a.b.c"`},
		{in: " 1.2.3.4", err: `bad IPv4 octet in " 1.2.3.4"`},
	} {
		got, err := parseIPv4(tc.in)
		gotErr := ""
		if err != nil {
			gotErr = err.Error()
		}
		if got != tc.want || gotErr != tc.err {
			t.Errorf("parseIPv4(%q) = %#x, %q; want %#x, %q", tc.in, got, gotErr, tc.want, tc.err)
		}
		if ref, refErr := splitIPv4(tc.in); ref != got || fmt.Sprint(refErr) != fmt.Sprint(err) {
			t.Errorf("parseIPv4(%q) = %#x, %v; the Split version gives %#x, %v", tc.in, got, err, ref, refErr)
		}
	}
}

// TestParseIPv4MatchesSplit compares parseIPv4 with the Split version on
// random strings: four dot-separated parts half the time, else one to
// six, of up to three bytes, mostly digits, sometimes a sign, a space or
// a letter, so that both accepted addresses and each kind of rejection
// come up.
func TestParseIPv4MatchesSplit(t *testing.T) {
	const alphabet = "01234567890123456789+- x"
	accepted := 0
	wrap := func(parse func(string) (uint32, error)) func([]byte) (uint32, string) {
		return func(b []byte) (uint32, string) {
			next := func() int {
				if len(b) == 0 {
					return 0
				}
				v := int(b[0])
				b = b[1:]
				return v
			}
			var sb strings.Builder
			parts := 4
			if next()%2 == 0 {
				parts = 1 + next()%6
			}
			for k := 0; k < parts; k++ {
				if k > 0 {
					sb.WriteByte('.')
				}
				for n := next() % 4; n > 0; n-- {
					sb.WriteByte(alphabet[next()%len(alphabet)])
				}
			}
			n, err := parse(sb.String())
			if err == nil {
				accepted++
			}
			return n, fmt.Sprint(err)
		}
	}
	if err := quick.CheckEqual(wrap(parseIPv4), wrap(splitIPv4), &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if accepted < 200 { // 702 with this seed
		t.Fatalf("only %d of 40000 parses accepted an address", accepted)
	}
}
