package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the committed goldens instead of comparing against them:
// go test ./cmd/experiments/ -run TestPaperTablesGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden instead of comparing against it")

// paperTables is every deterministic paper table: the set CI also diffs
// across pool widths.
const paperTables = "fig3,fig5,fig6,tableiii,tableiv,tablev,fig10,tablevi,tablevii"

// TestPaperTablesGolden pins the paper tables byte for byte, at -quick and
// at the 30-day default, against the committed output of
// `experiments -workers 1 -only <paperTables>` with the timing line
// stripped.
func TestPaperTablesGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"quick", []string{"-quick"}},
		{"30d", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := runTables(t, append([]string{"-workers", "1", "-only", paperTables}, c.args...))
			path := filepath.Join("testdata", "golden", "paper_tables_"+c.name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (regenerate with -update)", path, err)
			}
			if want := string(raw); got != want {
				g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := 0; i < len(g) || i < len(w); i++ {
					var gl, wl string
					if i < len(g) {
						gl = g[i]
					}
					if i < len(w) {
						wl = w[i]
					}
					if gl != wl {
						t.Fatalf("%s differs from the golden at line %d:\n got: %s\nwant: %s", path, i+1, gl, wl)
					}
				}
			}
		})
	}
}

// runTables runs the command with stdout sent to a temp file and returns
// what it printed, without the wall-time line.
func runTables(t *testing.T, args []string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if !strings.Contains(line, "done in") {
			b.WriteString(line)
		}
	}
	return b.String()
}
