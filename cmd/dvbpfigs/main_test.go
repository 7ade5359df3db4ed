package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvbp/internal/core"
)

// readAll returns name -> content for every file in dir.
func readAll(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestRenderFiguresDeterministic pins the -workers contract: the same eight
// files, byte for byte, whether rendered sequentially or in parallel.
func TestRenderFiguresDeterministic(t *testing.T) {
	seq := t.TempDir()
	if wrote, err := renderFigures(seq, 11, 24, 1); err != nil || wrote != 8 {
		t.Fatalf("sequential render: wrote=%d err=%v", wrote, err)
	}
	want := readAll(t, seq)
	if len(want) != 8 {
		t.Fatalf("expected 8 figures, got %d", len(want))
	}

	par := t.TempDir()
	if _, err := renderFigures(par, 11, 24, 4); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, par)
	if len(got) != len(want) {
		t.Fatalf("parallel render produced %d files, want %d", len(got), len(want))
	}
	for name, content := range want {
		if got[name] != content {
			t.Errorf("parallel render of %s differs from sequential", name)
		}
	}
}

// TestFragFigureShowsRankingFlip is the head-to-head acceptance check: the
// markdown output must report at least one uniform-vs-azure ranking flip, and
// at least one flip must involve a fragmentation-aware policy — the FARB-style
// evidence that policy rankings do not transfer between trace models.
func TestFragFigureShowsRankingFlip(t *testing.T) {
	study, err := runFragStudy(11)
	if err != nil {
		t.Fatal(err)
	}
	flips := study.Flips("uniform", "azure", 0.01)
	if len(flips) == 0 {
		t.Fatal("no uniform-vs-azure ranking flips above the noise gap")
	}
	fragAware := make(map[string]bool)
	for _, n := range core.FragmentationAwareNames() {
		fragAware[n] = true
	}
	found := false
	for _, f := range flips {
		if fragAware[f.A] || fragAware[f.B] {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no flip involves a fragmentation-aware policy: %+v", flips)
	}
	md := fragMarkdown(study)
	if !strings.Contains(md, "## Ranking flips: uniform vs azure") ||
		!strings.Contains(md, "but loses on") {
		t.Errorf("markdown does not surface the flips:\n%s", md)
	}
	for _, trace := range []string{"uniform", "azure", "google"} {
		if !strings.Contains(md, "## "+trace) {
			t.Errorf("markdown missing %s table", trace)
		}
	}
}

// TestDefragFigureShowsAzureNetWin is the defragmentation study's figure-level
// acceptance check (DESIGN.md §14): the markdown report must show at least one
// policy on the Azure-like traces whose budgeted-migration leg beats its
// irrevocable baseline even after paying the migration cost, with the cost
// columns present.
func TestDefragFigureShowsAzureNetWin(t *testing.T) {
	study, err := runDefragStudy(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.NetWins("azure")) == 0 {
		t.Fatal("no policy is a net win on the azure traces under the default budget")
	}
	md := defragMarkdown(study)
	for _, trace := range []string{"uniform", "azure", "google"} {
		if !strings.Contains(md, "## "+trace) {
			t.Errorf("markdown missing %s table", trace)
		}
	}
	if !strings.Contains(md, "move cost") {
		t.Error("markdown does not report the migration cost column")
	}
	ti := strings.Index(md, "## azure")
	gi := strings.Index(md, "## google")
	if ti < 0 || gi < 0 || ti > gi {
		t.Fatalf("markdown trace sections out of order: azure@%d google@%d", ti, gi)
	}
	azure := md[ti:gi]
	if !strings.Contains(azure, "net wins after paying migration cost: ") ||
		strings.Contains(azure, "net wins after paying migration cost: none") {
		t.Errorf("azure section does not list net-win policies:\n%s", azure)
	}
}
