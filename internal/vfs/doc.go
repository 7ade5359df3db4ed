// Package vfs is the filesystem seam under the persistence layer: a small
// interface over exactly the operations internal/persist and internal/server
// perform (open/create/write/fsync/truncate/rename/remove, plus directory
// fsync), with three implementations.
//
//   - OS is the production passthrough onto the real filesystem.
//   - Mem is a deterministic in-memory filesystem that models durability the
//     way a disk does: written bytes and directory entries are volatile until
//     the corresponding fsync (File.Sync for contents, SyncDir for entries),
//     and a simulated power loss discards everything after the last sync
//     barrier. Every mutating operation is counted, so a test can re-run a
//     recorded workload and cut power at filesystem-op N for every N — the
//     exhaustive crash-point torture that
//     `go test -race -run='Vfs|Mem|Injector|Crash|DiskTorture|PowerLoss|RenameFault|Prunes|Rollback|SyncsParent|SweepsOrphan|Classification|Degraded|SickDisk|DiskFault' ./internal/vfs ./internal/persist ./internal/server ./cmd/dvbpchaos ./cmd/dvbpbench`
//     runs (and `make race` with everything else).
//   - Injector wraps any FS and fails chosen operations deterministically:
//     a parsed plan ("write:3:enospc" fails the 3rd write with ENOSPC) for
//     seeded single-fault runs, and sticky errors for tests that hold a disk
//     sick (ENOSPC) over a window and then heal it.
//
// The durability model Mem enforces is the contract the persist layer is
// written against: creating or renaming a file does not survive a crash until
// its parent directory is fsynced, file writes do not survive until File.Sync,
// and a crash may additionally tear the unsynced tail (a prefix of the
// unflushed bytes survives) or — the other legal outcome — flush it entirely.
// Directory creation is modeled as immediately durable, matching
// metadata-journaling filesystems. See DESIGN.md §15.
package vfs
