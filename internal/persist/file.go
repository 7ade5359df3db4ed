package persist

import (
	"io"
	"os"
	"path/filepath"

	"dvbp/internal/vfs"
)

// defaultSyncEvery is the session's fsync batch size: Step syncs the op log
// after this many events (and Sync/Close always do). Batching amortises the
// fsync cost over a window of events; a crash can lose at most the current
// batch's progress, which recovery re-steps.
const defaultSyncEvery = 64

// SyncManual disables the session's automatic fsyncs entirely: records
// accumulate in the op log's buffer until an explicit Sync (or Rollback).
// The server's tenants use it so a group commit is all-or-nothing — no
// auto-sync can make half a batch durable behind the barrier's back.
const SyncManual = -1

// Writer appends checksummed records to a persist-format file. Appends land
// in an owned in-process buffer and reach the filesystem only on Sync, which
// is retryable: a failed write or fsync leaves the buffer intact, so the next
// Sync resumes where the device gave up (tracking any partial write), and
// Rollback abandons the buffered suffix by truncating back to the last
// durable size. A Writer is single-goroutine, like the engine it records.
type Writer struct {
	f       vfs.File
	path    string
	buf     []byte // bytes appended since the last successful Sync
	flushed int    // prefix of buf already written to the file (not yet fsynced)
	size    int64  // logical size including buffered bytes
	synced  int64  // size the device has durably acknowledged
}

// Create creates (truncating) a persist file of the given kind, writes its
// header and the given records durably, and fsyncs the parent directory so
// the file's entry — not just its contents — survives a crash. fsys nil
// means the real filesystem.
func Create(fsys vfs.FS, path string, kind FileKind, records ...[]byte) (*Writer, error) {
	fsys = vfs.OrOS(fsys)
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, ioErr("create", path, err)
	}
	w := &Writer{f: f, path: path}
	w.buf = appendHeader(w.buf, kind)
	w.size = headerSize
	for _, r := range records {
		w.Append(r)
	}
	if err := w.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	// A crash here must not lose the directory entry of a file whose header
	// is already durable: sync the parent like the rename path does.
	if err := syncDir(fsys, filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// openAppend reopens an existing persist file for appending after truncating
// it to validSize — the recovery path that discards a torn tail and continues
// the log in place.
func openAppend(fsys vfs.FS, path string, validSize int64) (*Writer, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, ioErr("open", path, err)
	}
	if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, ioErr("truncate", path, err)
	}
	if _, err := f.Seek(validSize, io.SeekStart); err != nil {
		f.Close()
		return nil, ioErr("seek", path, err)
	}
	w := &Writer{f: f, path: path, size: validSize}
	if err := w.Sync(); err != nil { // persist the truncation itself
		f.Close()
		return nil, err
	}
	return w, nil
}

// Append frames one record into the writer's buffer; the payload is copied
// before Append returns. Nothing reaches the device until Sync.
func (w *Writer) Append(payload []byte) {
	n := len(w.buf)
	w.buf = appendRecord(w.buf, payload)
	w.size += int64(len(w.buf) - n)
}

// Sync writes the buffered bytes to the file and fsyncs it. On failure the
// buffer is kept (minus the prefix the device already took, which the next
// attempt skips) and the error is retryable; nothing is acknowledged until a
// Sync returns nil.
func (w *Writer) Sync() error {
	for w.flushed < len(w.buf) {
		n, err := w.f.Write(w.buf[w.flushed:])
		w.flushed += n
		if err != nil {
			return ioErr("write", w.path, err)
		}
	}
	if err := w.f.Sync(); err != nil {
		return ioErr("sync", w.path, err)
	}
	w.synced = w.size
	w.buf = w.buf[:0]
	w.flushed = 0
	return nil
}

// Rollback abandons every record appended since the last successful Sync:
// the buffer is dropped and — when a failed Sync already pushed a partial
// prefix to the file — the file is truncated back to its durable size. After
// a nil return the writer is exactly at its last durable state; an error here
// means even the truncation failed and the on-disk tail is unknown, which the
// caller must treat as fatal.
func (w *Writer) Rollback() error {
	if w.flushed > 0 {
		if err := w.f.Truncate(w.synced); err != nil {
			return ioErr("truncate", w.path, err)
		}
		if _, err := w.f.Seek(w.synced, io.SeekStart); err != nil {
			return ioErr("seek", w.path, err)
		}
	}
	w.buf = w.buf[:0]
	w.flushed = 0
	w.size = w.synced
	return nil
}

// Size returns the file size including any still-buffered bytes.
func (w *Writer) Size() int64 { return w.size }

// Synced returns the durably acknowledged size.
func (w *Writer) Synced() int64 { return w.synced }

// Close syncs and closes the file.
func (w *Writer) Close() error {
	syncErr := w.Sync()
	closeErr := w.f.Close()
	if syncErr != nil {
		return syncErr
	}
	if closeErr != nil {
		return ioErr("close", w.path, closeErr)
	}
	return nil
}

// FileData is the decoded content of one persist file.
type FileData struct {
	Kind FileKind
	// Records holds every intact payload, in file order.
	Records [][]byte
	// Offsets[i] is the byte offset of Records[i]'s frame.
	Offsets []int64
	// Size is the file's full size; ValidSize the prefix covered by the
	// header and intact records (== Size when the file is clean).
	Size      int64
	ValidSize int64
	// Torn describes the first defect in the record region, nil when clean.
	// A torn file is still usable up to ValidSize.
	Torn *CorruptionError
}

// ReadFile reads and validates a persist file. A damaged header (or an
// unreadable file) is fatal and returned as the error; damaged records only
// truncate: the intact prefix comes back in FileData with Torn describing
// the defect. The returned payloads alias the bytes read, which nothing else
// holds. fsys nil means the real filesystem.
func ReadFile(fsys vfs.FS, path string) (*FileData, error) {
	data, err := vfs.OrOS(fsys).ReadFile(path)
	if err != nil {
		return nil, ioErr("read", path, err)
	}
	return decodeFile(data, path)
}

// decodeFile validates the bytes of a persist file read from path.
func decodeFile(data []byte, path string) (*FileData, error) {
	kind, herr := parseHeader(data)
	if herr != nil {
		herr.Path = path
		return nil, herr
	}
	recs, offs, torn := scanRecords(data[headerSize:], headerSize)
	fd := &FileData{Kind: kind, Records: recs, Offsets: offs, Size: int64(len(data)), ValidSize: int64(len(data)), Torn: torn}
	if torn != nil {
		torn.Path = path
		fd.ValidSize = torn.Offset
	}
	return fd, nil
}

// syncDir fsyncs a directory so renames and creations within it survive a
// crash (the standard create-temp / rename / fsync-dir dance).
func syncDir(fsys vfs.FS, dir string) error {
	if err := vfs.OrOS(fsys).SyncDir(dir); err != nil {
		return ioErr("syncdir", dir, err)
	}
	return nil
}

// WriteFileAtomic writes content to path via a temp file + rename + directory
// sync, so a crash never leaves a half-written file under the final name. The
// server layer uses it for its tenant manifest; snapshots go through it too.
// fsys nil means the real filesystem.
func WriteFileAtomic(fsys vfs.FS, path string, content []byte) error {
	fsys = vfs.OrOS(fsys)
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return ioErr("createtemp", dir, err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); fsys.Remove(tmpName) }
	if _, err := tmp.Write(content); err != nil {
		cleanup()
		return ioErr("write", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return ioErr("sync", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpName)
		return ioErr("close", tmpName, err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		fsys.Remove(tmpName)
		return ioErr("rename", path, err)
	}
	return syncDir(fsys, dir)
}
