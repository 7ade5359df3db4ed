package main

import (
	"os"
	"path/filepath"
	"testing"

	"dvbp/internal/cli"
	"dvbp/internal/workload"
)

func TestLoadInstanceGenerates(t *testing.T) {
	l, err := cli.LoadInstance("", 2, 50, 5, 100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 50 || l.Dim != 2 {
		t.Errorf("shape = %dx%d", l.Dim, l.Len())
	}
}

func TestLoadInstanceFromFiles(t *testing.T) {
	dir := t.TempDir()
	src, err := workload.Uniform(workload.UniformConfig{D: 3, N: 20, Mu: 4, T: 20, B: 10}, 2)
	if err != nil {
		t.Fatal(err)
	}

	csvPath := filepath.Join(dir, "a.csv")
	f, _ := os.Create(csvPath)
	if err := workload.WriteCSV(f, src); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := cli.LoadInstance(csvPath, 0, 0, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 20 || got.Dim != 3 {
		t.Errorf("csv shape = %dx%d", got.Dim, got.Len())
	}

	jsonPath := filepath.Join(dir, "a.json")
	f, _ = os.Create(jsonPath)
	if err := workload.WriteJSON(f, src); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err = cli.LoadInstance(jsonPath, 0, 0, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 20 {
		t.Errorf("json items = %d", got.Len())
	}

	if _, err := cli.LoadInstance(filepath.Join(dir, "missing.csv"), 0, 0, 0, 0, 0, 0); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := cli.LoadInstance("", 0, 0, 0, 0, 0, 1); err == nil {
		t.Error("invalid generator config accepted")
	}
}
