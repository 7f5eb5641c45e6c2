package repro

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// designDoc is the document the script checks citations against: all
// DESIGN.md references in the tree must resolve to a real section.
const designDoc = "DESIGN.md"

// TestDesignRefsMatchWholeHeadings runs scripts/check_design_refs.sh in a
// temporary tree holding a copy of designDoc and one file citing two of its
// sections. The real headings resolve (exit 0); a heading reworded past
// the cited name, even one that keeps it as a prefix, must not (exit 1).
func TestDesignRefsMatchWholeHeadings(t *testing.T) {
	design, err := os.ReadFile(designDoc)
	if err != nil {
		t.Fatal(err)
	}
	script, err := filepath.Abs(filepath.Join("scripts", "check_design_refs.sh"))
	if err != nil {
		t.Fatal(err)
	}
	const citing = "package cite\n\n// See DESIGN.md's Section 3 window section and DESIGN.md ablation A1.\n"
	for _, tc := range []struct {
		name     string
		old, new string // heading rewrite applied to designDoc ("" = none)
		want     int
	}{
		{"real headings", "", "", 0},
		{"Section 3 windows", "\n## Section 3 window\n", "\n## Section 3 windows\n", 1},
		{"Ablation A10", "\n### Ablation A1 ", "\n### Ablation A10 ", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := string(design)
			if tc.old != "" {
				if !strings.Contains(doc, tc.old) {
					t.Fatalf("%s has no heading %q to reword", designDoc, strings.TrimSpace(tc.old))
				}
				doc = strings.Replace(doc, tc.old, tc.new, 1)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, designDoc), []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "cite.go"), []byte(citing), 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("sh", script)
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			status := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				status = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if status != tc.want {
				t.Errorf("exit %d, want %d; output:\n%s", status, tc.want, out)
			}
		})
	}
}
