package persist

import (
	"errors"
	"fmt"
	"syscall"

	"dvbp/internal/vfs"
)

// IOError wraps a failed filesystem operation with what was being attempted.
// It is the persist layer's "the disk misbehaved" error, as opposed to
// CorruptionError's "the disk lied": an IOError leaves on-disk state honest
// (possibly behind, never wrong), so the caller may retry, degrade, or skip —
// poisoning is reserved for corruption.
type IOError struct {
	// Op names the failed operation (open, write, sync, rename, ...).
	Op string
	// Path is the file or directory involved.
	Path string
	// Err is the underlying cause (syscall errno, vfs.ErrCrashed, ...).
	Err error
}

// Error implements error.
func (e *IOError) Error() string {
	return fmt.Sprintf("persist: %s %s: %v", e.Op, e.Path, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *IOError) Unwrap() error { return e.Err }

func ioErr(op, path string, err error) *IOError {
	return &IOError{Op: op, Path: path, Err: err}
}

// ErrorClass partitions persistence failures by the recovery action they
// permit. The server's tenant workers drive their fail/degrade/retry state
// machine off it (DESIGN.md §15).
type ErrorClass int

const (
	// ClassNone: no error.
	ClassNone ErrorClass = iota
	// ClassCorruption: on-disk state is inconsistent with what was
	// acknowledged. Fail-stop — continuing would acknowledge lies.
	ClassCorruption
	// ClassDiskFull: the device is out of space (ENOSPC/EDQUOT). Retrying
	// immediately is pointless; degrade to read-only and probe until space
	// returns.
	ClassDiskFull
	// ClassTransient: an I/O error that may heal (EIO and everything else
	// wrapped in an IOError). Retry with capped backoff, then degrade.
	ClassTransient
	// ClassFatal: not an I/O outcome at all — a simulated power loss or a
	// programming error. Fail-stop.
	ClassFatal
)

func (c ErrorClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassCorruption:
		return "corruption"
	case ClassDiskFull:
		return "disk_full"
	case ClassTransient:
		return "transient"
	default:
		return "fatal"
	}
}

// Classify maps an error onto its ErrorClass. Corruption dominates (a
// CorruptionError wrapping an errno is still corruption), then the simulated
// power loss, then the errno taxonomy; anything not wrapped as an IOError is
// fatal because the layer cannot vouch for what state it left behind.
func Classify(err error) ErrorClass {
	if err == nil {
		return ClassNone
	}
	var ce *CorruptionError
	if errors.As(err, &ce) {
		return ClassCorruption
	}
	if errors.Is(err, vfs.ErrCrashed) {
		return ClassFatal
	}
	if errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT) {
		return ClassDiskFull
	}
	var ioe *IOError
	if errors.As(err, &ioe) {
		return ClassTransient
	}
	return ClassFatal
}

// Recoverable reports whether the error is one the disk can heal from —
// retry (transient) or wait for space (disk full). Corruption and fatal
// errors are not recoverable: the caller must stop acknowledging.
func Recoverable(err error) bool {
	c := Classify(err)
	return c == ClassDiskFull || c == ClassTransient
}
