package main

import (
	"os"
	"path/filepath"
	"testing"

	"dvbp/internal/persist"
	"dvbp/internal/vfs"
)

// TestTimingFSKeepsDurability: wrapped around vfs.Mem, bytes synced through
// the wrapper survive a simulated power loss and unsynced bytes do not, and
// an atomic replacement made through it survives whole and is recorded as
// one span, attributed to the mutation in flight on its tenant.
func TestTimingFSKeepsDurability(t *testing.T) {
	mem := vfs.NewMem()
	tr := newTracer()
	owner := func(tenant string) (int64, int64) {
		if tenant == "t1" {
			return 7, 8
		}
		return 0, 0
	}
	fsys := newTimingFS(mem, "data", tr, owner)
	if err := fsys.MkdirAll("data/t1", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.OpenFile("data/t1/wal.dvbp", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir("data/t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-volatile")); err != nil {
		t.Fatal(err)
	}
	if err := persist.WriteFileAtomic(fsys, filepath.Join("data", "t1", "snap-1.dvbp"), []byte("snapshot")); err != nil {
		t.Fatal(err)
	}

	mem.CrashNow(vfs.CrashLost)
	mem.Restart()
	if got, err := mem.ReadFile("data/t1/wal.dvbp"); err != nil || string(got) != "durable" {
		t.Fatalf("after power loss the WAL holds %q (%v), want %q", got, err, "durable")
	}
	if got, err := mem.ReadFile("data/t1/snap-1.dvbp"); err != nil || string(got) != "snapshot" {
		t.Fatalf("after power loss the snapshot holds %q (%v), want %q", got, err, "snapshot")
	}

	var atomic, fsyncs int
	for _, s := range tr.snapshot() {
		if s.Req != 7 || s.Parent != 8 {
			t.Errorf("span %s attributed to request %d parent %d, want 7 and 8", s.Name, s.Req, s.Parent)
		}
		switch s.Name {
		case "persist.atomic.snap":
			atomic++
			if s.Bytes != int64(len("snapshot")) {
				t.Errorf("checkpoint span carries %d bytes, want %d", s.Bytes, len("snapshot"))
			}
		case "vfs.fsync.wal", "vfs.fsync.snap.tmp", "vfs.fsync.dir":
			fsyncs++
		}
	}
	if atomic != 1 || fsyncs != 4 {
		t.Fatalf("recorded %d atomic replacements and %d fsyncs, want 1 and 4", atomic, fsyncs)
	}
}

// TestTenantOf: spans are attributed by the first directory below the root.
func TestTenantOf(t *testing.T) {
	fsys := newTimingFS(vfs.NewMem(), "/d/data", newTracer(), nil)
	for path, want := range map[string]string{
		"/d/data/t1/wal.dvbp":                "t1",
		"/d/data/t1":                         "t1",
		"/d/data/tenants.json":               "",
		"/d/data/tenants.json.tmp-1":         "",
		"/d/data":                            "",
		"/d/elsewhere/t1/wal.dvbp":           "",
		"/d/data/t2/snap-1.dvbp.tmp-3348812": "t2",
	} {
		if got := fsys.tenantOf(path); got != want {
			t.Errorf("tenantOf(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestOpLogCompactionTakesTheAckedBatch: the server compacts the op log after
// it acknowledged a batch, when the writer's next request may be in flight.
// The compaction's spans take the acknowledged batch's owner; the next
// batch's appends take the next request's.
func TestOpLogCompactionTakesTheAckedBatch(t *testing.T) {
	tr := newTracer()
	inflight := [2]int64{7, 8}
	fsys := newTimingFS(vfs.NewMem(), "data", tr, func(string) (int64, int64) { return inflight[0], inflight[1] })
	if err := fsys.MkdirAll("data/t1", 0o755); err != nil {
		t.Fatal(err)
	}
	appendSync := func(name string) {
		f, err := fsys.OpenFile(filepath.Join("data", "t1", name), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write([]byte("record")); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	appendSync("ops.dvbp")
	appendSync("wal.dvbp")
	inflight = [2]int64{9, 10} // acknowledged; the next request arrives
	if _, err := fsys.ReadFile("data/t1/ops.dvbp"); err != nil {
		t.Fatal(err)
	}
	if err := persist.WriteFileAtomic(fsys, filepath.Join("data", "t1", "ops.dvbp"), []byte("compacted")); err != nil {
		t.Fatal(err)
	}
	batch := tr.snapshot()
	appendSync("ops.dvbp")
	appendSync("wal.dvbp")

	compaction := 0
	for i, s := range tr.snapshot() {
		want := [2]int64{7, 8}
		if i >= len(batch) {
			want = [2]int64{9, 10}
		}
		if got := [2]int64{s.Req, s.Parent}; got != want {
			t.Errorf("span %d %s attributed to %v, want %v", i, s.Name, got, want)
		}
		if s.Name == "persist.atomic.ops" {
			compaction++
		}
	}
	if compaction != 1 {
		t.Fatalf("recorded %d op-log replacements, want 1", compaction)
	}
}
