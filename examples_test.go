package jinjing_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamples builds and runs each runnable example, asserting on the
// key lines of its output (the examples double as integration tests of
// the public API).
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("examples build binaries; skipped in -short mode")
	}
	cases := []struct {
		dir  string
		want []string
	}{
		{"quickstart", []string{
			"check: INCONSISTENT",
			"verified=true",
			"A:1 ingress ACL after fix+simplify: deny dst 6.0.0.0/8, permit all",
		}},
		{"migration", []string{
			"AECs: 4 (Table 3)",
			"DEC-split AECs: 1",
			"plan verified: true",
		}},
		{"isolation", []string{
			// The one shipped input whose AECs have a choice of denying
			// target: the closed form's tie rule puts the subnet side's
			// deny at R3:sub, not at R1:d and R2:d.
			"generate: 51 classes, 4 AECs (0 DEC-split), 3 rules, verified=true",
			"R1:up:in: deny src 1.2.0.0/16, permit all",
			"R3:sub:in: deny dst 1.2.0.0/16, permit all",
			"service -> subnet (must be blocked)        BLOCKED",
			"subnet -> service (must be blocked)        BLOCKED",
			"other traffic -> subnet (must still work)  permitted",
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			out, err := exec.Command("go", "run", "./examples/"+c.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", c.dir, err, out)
			}
			for _, w := range c.want {
				if !strings.Contains(string(out), w) {
					t.Errorf("example %s output missing %q:\n%s", c.dir, w, out)
				}
			}
		})
	}
}
