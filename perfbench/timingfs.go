package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dvbp/internal/vfs"
)

// timingFS is a vfs.FS that forwards every call unchanged to inner and
// records a span for each write, read, fsync, rename and directory sync. It
// also records one "persist.atomic.<kind>" span per atomic file replacement
// (temp file → rename → directory sync): that is how snapshots, WAL and
// op-log compactions and the tenant manifest reach the disk.
//
// Each span takes the request of the one mutation in flight on the tenant
// whose directory holds the path (owner), which is exact because every
// tenant has a single writer and reads never fsync. Op-log compaction is the
// one exception (see ownerOf).
type timingFS struct {
	inner vfs.FS
	root  string // data directory; the first element below it names the tenant
	tr    *tracer
	owner func(tenant string) (req, parent int64)

	mu      sync.Mutex
	pending map[string]*atomicWrite // temp path → replacement being written
	renamed map[string]*atomicWrite // directory → replacement awaiting its dir sync
	last    map[string][2]int64     // tenant → owner of its latest span
}

// atomicWrite is one temp-file → rename → directory-sync sequence.
type atomicWrite struct {
	id, req, parent int64
	kind            string
	start           time.Duration
	bytes           int64
}

func newTimingFS(inner vfs.FS, root string, tr *tracer, owner func(string) (int64, int64)) *timingFS {
	return &timingFS{
		inner: inner, root: filepath.Clean(root), tr: tr, owner: owner,
		pending: make(map[string]*atomicWrite),
		renamed: make(map[string]*atomicWrite),
		last:    make(map[string][2]int64),
	}
}

// fileKind classifies a path by the file it is (or is a temp file for):
// ops (op log), wal, snap, manifest or other.
func fileKind(path string) string {
	base := filepath.Base(path)
	kind := "other"
	switch {
	case strings.HasPrefix(base, "snap-"):
		kind = "snap"
	case strings.HasPrefix(base, "wal.dvbp"):
		kind = "wal"
	case strings.HasPrefix(base, "ops.dvbp"):
		kind = "ops"
	case strings.HasPrefix(base, "tenants.json"):
		kind = "manifest"
	}
	if strings.Contains(base, ".tmp-") {
		kind += ".tmp"
	}
	return kind
}

// tenantOf returns the tenant whose directory is or holds path: "" for the
// store root, files directly in it (tenant names have no dots, the manifest
// has), and paths outside it.
func (t *timingFS) tenantOf(path string) string {
	rel, err := filepath.Rel(t.root, filepath.Clean(path))
	if err != nil || rel == "." || strings.HasPrefix(rel, "..") {
		return ""
	}
	first, rest, _ := strings.Cut(rel, string(filepath.Separator))
	if rest == "" && strings.Contains(first, ".") {
		return ""
	}
	return first
}

// compacting reports whether a span on a file of this kind belongs to
// op-log compaction. A mutation only appends to the op log and syncs it;
// compaction reads it, writes its replacement (ops.tmp), renames that over
// it and syncs the directory.
func compacting(name, kind string) bool {
	return kind == "ops.tmp" || kind == "ops" && name != "vfs.write.ops" && name != "vfs.fsync.ops"
}

// ownerOf returns the mutation a span on path belongs to: the one in flight
// on path's tenant. The server compacts the op log after it acknowledged
// the batch, when the writer's next request may already be in flight, or no
// request is; so a compaction span takes the owner of the tenant's latest
// span before it, the batch's WAL sync, since one worker makes them all.
func (t *timingFS) ownerOf(path string, compaction bool) (int64, int64) {
	tenant := t.tenantOf(path)
	t.mu.Lock()
	defer t.mu.Unlock()
	if !compaction {
		req, parent := t.owner(tenant)
		t.last[tenant] = [2]int64{req, parent}
	}
	o := t.last[tenant]
	return o[0], o[1]
}

// timed runs op and records it as a span named name on path's tenant; kind
// is the kind of file the span is about.
func (t *timingFS) timed(name, kind, path string, op func() (int64, error)) error {
	req, parent := t.ownerOf(path, compacting(name, kind))
	start := t.tr.now()
	n, err := op()
	t.tr.record(span{ID: t.tr.newID(), Parent: parent, Req: req, Name: name, Start: start, End: t.tr.now(), Bytes: n})
	return err
}

func (t *timingFS) wrap(f vfs.File, aw *atomicWrite) vfs.File {
	return &timingFile{File: f, fs: t, kind: fileKind(f.Name()), aw: aw}
}

// OpenFile implements vfs.FS.
func (t *timingFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := t.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return t.wrap(f, nil), nil
}

// CreateTemp implements vfs.FS and opens an atomic replacement.
func (t *timingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	start := t.tr.now()
	f, err := t.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	kind := fileKind(f.Name())
	req, parent := t.ownerOf(f.Name(), compacting("vfs.create", kind))
	aw := &atomicWrite{id: t.tr.newID(), req: req, parent: parent,
		kind: strings.TrimSuffix(kind, ".tmp"), start: start}
	t.mu.Lock()
	t.pending[f.Name()] = aw
	t.mu.Unlock()
	return t.wrap(f, aw), nil
}

// ReadFile implements vfs.FS.
func (t *timingFS) ReadFile(name string) ([]byte, error) {
	var data []byte
	kind := fileKind(name)
	err := t.timed("vfs.read."+kind, kind, name, func() (int64, error) {
		var err error
		data, err = t.inner.ReadFile(name)
		return int64(len(data)), err
	})
	return data, err
}

// ReadDir implements vfs.FS.
func (t *timingFS) ReadDir(name string) ([]fs.DirEntry, error) { return t.inner.ReadDir(name) }

// Stat implements vfs.FS.
func (t *timingFS) Stat(name string) (fs.FileInfo, error) { return t.inner.Stat(name) }

// Rename implements vfs.FS; renaming an atomic replacement's temp file
// leaves the replacement waiting for its directory sync.
func (t *timingFS) Rename(oldpath, newpath string) error {
	err := t.timed("vfs.rename", fileKind(newpath), newpath, func() (int64, error) { return 0, t.inner.Rename(oldpath, newpath) })
	t.mu.Lock()
	if aw, ok := t.pending[oldpath]; ok {
		delete(t.pending, oldpath)
		if err == nil {
			t.renamed[filepath.Clean(filepath.Dir(newpath))] = aw
		}
	}
	t.mu.Unlock()
	return err
}

// Remove implements vfs.FS.
func (t *timingFS) Remove(name string) error {
	t.mu.Lock()
	delete(t.pending, name) // an abandoned replacement
	t.mu.Unlock()
	return t.inner.Remove(name)
}

// RemoveAll implements vfs.FS.
func (t *timingFS) RemoveAll(path string) error { return t.inner.RemoveAll(path) }

// MkdirAll implements vfs.FS.
func (t *timingFS) MkdirAll(path string, perm fs.FileMode) error { return t.inner.MkdirAll(path, perm) }

// SyncDir implements vfs.FS; it completes an atomic replacement renamed
// into dir.
func (t *timingFS) SyncDir(dir string) error {
	t.mu.Lock()
	aw, ok := t.renamed[filepath.Clean(dir)]
	delete(t.renamed, filepath.Clean(dir))
	t.mu.Unlock()
	kind := "dir"
	if ok {
		kind = aw.kind
	}
	err := t.timed("vfs.fsync.dir", kind, dir, func() (int64, error) {
		return 0, t.inner.SyncDir(dir)
	})
	if ok && err == nil {
		t.tr.record(span{ID: aw.id, Parent: aw.parent, Req: aw.req, Name: "persist.atomic." + aw.kind,
			Start: aw.start, End: t.tr.now(), Bytes: aw.bytes})
	}
	return err
}

// timingFile forwards to the wrapped handle, timing writes and fsyncs.
type timingFile struct {
	vfs.File
	fs   *timingFS
	kind string
	aw   *atomicWrite // set for the temp file of an atomic replacement
}

// Write implements vfs.File.
func (f *timingFile) Write(p []byte) (int, error) {
	var n int
	err := f.fs.timed("vfs.write."+f.kind, f.kind, f.Name(), func() (int64, error) {
		var err error
		n, err = f.File.Write(p)
		return int64(n), err
	})
	if f.aw != nil {
		f.aw.bytes += int64(n) // only the worker writing the file touches it
	}
	return n, err
}

// Sync implements vfs.File.
func (f *timingFile) Sync() error {
	return f.fs.timed("vfs.fsync."+f.kind, f.kind, f.Name(), func() (int64, error) { return 0, f.File.Sync() })
}
