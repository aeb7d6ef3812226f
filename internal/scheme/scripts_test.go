package scheme_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/scheme"
)

// TestScripts runs every demo script in scripts/ on the VM (the
// "compiled" subtests) and on the reference evaluator; the scripts are
// self-checking (they (error ...) on any mismatch).
func TestScripts(t *testing.T) {
	dir := filepath.Join("..", "..", "scripts")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("scripts directory missing: %v", err)
	}
	ran := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".scm") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, compiled := range []bool{false, true} {
			name := e.Name()
			if compiled {
				name += "/compiled"
			}
			t.Run(name, func(t *testing.T) {
				m, run := scheme.NewReference(heap.NewDefault(), nil), (*scheme.Machine).RefEvalString
				if compiled {
					m, run = scheme.New(heap.NewDefault(), nil), (*scheme.Machine).EvalString
				}
				var out strings.Builder
				m.Out = &out
				if _, err := run(m, string(src)); err != nil {
					t.Fatalf("script failed: %v\noutput so far:\n%s", err, out.String())
				}
				if strings.Contains(out.String(), "FAIL") {
					t.Fatalf("script reported failures:\n%s", out.String())
				}
			})
		}
		ran++
	}
	if ran < 3 {
		t.Fatalf("expected at least 3 scripts, ran %d", ran)
	}
}
