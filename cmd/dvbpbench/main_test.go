package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvbp/internal/report"
)

func TestParseMus(t *testing.T) {
	got := parseMus("1,2, 5")
	if len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Errorf("parseMus = %v", got)
	}
}

func TestWriteCSVAndFile(t *testing.T) {
	dir := t.TempDir()
	tbl := &report.Table{Headers: []string{"a"}, Rows: [][]string{{"1"}}}
	writeCSV(dir, "x.csv", tbl)
	b, err := os.ReadFile(filepath.Join(dir, "x.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "a\n1\n") {
		t.Errorf("csv content = %q", b)
	}
	writeFile(dir, "y.svg", "<svg/>")
	b, err = os.ReadFile(filepath.Join(dir, "y.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "<svg/>" {
		t.Errorf("file content = %q", b)
	}
}

func TestAblationCfgCapsInstances(t *testing.T) {
	cfg := ablationCfg(5, 9, 2)
	if cfg.Instances != 5 || cfg.Seed != 9 || cfg.Workers != 2 {
		t.Errorf("ablationCfg = %+v", cfg)
	}
	big := ablationCfg(10_000, 1, 0)
	if big.Instances > 10_000 {
		t.Errorf("instances not capped sanely: %d", big.Instances)
	}
}

// TestRunExperimentsSmoke drives the top-level run functions with tiny
// parameters to make sure the wiring works end to end.
func TestRunExperimentsSmoke(t *testing.T) {
	dir := t.TempDir()
	runFigure4(1, 2, "1,5", 1, 0, dir)
	runTable1(1, 0, dir)
	runUBCheck(2, 1, 0)
	runAblationBestFit(2, 1, 0, dir)
	runAblationClairvoyant(2, 1, 0, dir)
	runAblationBilling(2, 1, 0, dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 5 {
		t.Errorf("expected artefacts in %s, found %d", dir, len(entries))
	}
}
