package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// File layout
//
//	header  : magic [8] | version uint32 LE | kind uint32 LE
//	records : ( length uint32 LE | crc32c(payload) uint32 LE | payload )*
//
// The magic pins the file family, the version the record-level format, and
// the kind what the payloads mean (op log vs snapshot). Every payload is guarded
// by its own CRC-32/Castagnoli, so a torn tail or a bit flip is detected at
// the first damaged record and everything before it remains trustworthy.

const (
	// formatVersion is the on-disk record format version.
	formatVersion = 1

	headerSize = 8 + 4 + 4
	frameSize  = 4 + 4

	// maxPayload bounds a single record so a corrupted length field cannot
	// drive a multi-gigabyte allocation before the checksum gets a chance to
	// reject it.
	maxPayload = 1 << 28
)

// magic identifies persist-layer files.
var magic = [8]byte{'D', 'V', 'B', 'P', 'P', 'E', 'R', 'S'}

// FileKind distinguishes the persisted file types.
type FileKind uint32

// The persisted file kinds. Kind 1 was the write-ahead event log, which the
// op log replaced; a file of that kind is refused as an unknown kind.
const (
	// KindSnapshot is a checkpoint: a meta record, the event digest mark at
	// the snapshot's event, the engine snapshot, and any auxiliary state
	// records.
	KindSnapshot FileKind = 2
	// KindOpLog is a run's operation log, its one durable log: a meta record
	// followed, for a dynamic run, by one record per admitted client
	// operation (item arrival or clock advance), and for every run by the
	// digest marks the session appends at its barriers.
	KindOpLog FileKind = 3
)

// castagnoli is the CRC-32/Castagnoli table (iSCSI polynomial; hardware
// accelerated on the platforms the runner targets).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendHeader appends the file header for the given kind.
func appendHeader(dst []byte, kind FileKind) []byte {
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, formatVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(kind))
	return dst
}

// parseHeader validates the 16-byte file header.
func parseHeader(data []byte) (FileKind, *CorruptionError) {
	if len(data) < headerSize {
		return 0, &CorruptionError{Offset: 0, Record: -1, Reason: fmt.Sprintf("file is %d bytes, shorter than the %d-byte header", len(data), headerSize)}
	}
	if [8]byte(data[:8]) != magic {
		return 0, &CorruptionError{Offset: 0, Record: -1, Reason: "bad magic"}
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != formatVersion {
		return 0, &CorruptionError{Offset: 8, Record: -1, Reason: fmt.Sprintf("unsupported format version %d (supported: %d)", v, formatVersion)}
	}
	kind := FileKind(binary.LittleEndian.Uint32(data[12:16]))
	if kind != KindSnapshot && kind != KindOpLog {
		return 0, &CorruptionError{Offset: 12, Record: -1, Reason: fmt.Sprintf("unknown file kind %d", uint32(kind))}
	}
	return kind, nil
}

// appendRecord frames one payload onto dst.
func appendRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// scanRecords decodes the record region of a file (everything after the
// header). It returns every intact record with its byte offset, and — when
// the tail is torn or checksum-damaged — a CorruptionError describing the
// first defect. The returned payloads alias data.
func scanRecords(data []byte, base int64) (payloads [][]byte, offsets []int64, torn *CorruptionError) {
	off := int64(0)
	rec := 0
	for len(data) > 0 {
		if len(data) < frameSize {
			return payloads, offsets, &CorruptionError{Offset: base + off, Record: rec, Reason: fmt.Sprintf("torn frame: %d trailing bytes", len(data))}
		}
		n := binary.LittleEndian.Uint32(data)
		if n > maxPayload {
			return payloads, offsets, &CorruptionError{Offset: base + off, Record: rec, Reason: fmt.Sprintf("record length %d exceeds limit %d", n, maxPayload)}
		}
		if int(n) > len(data)-frameSize {
			return payloads, offsets, &CorruptionError{Offset: base + off, Record: rec, Reason: fmt.Sprintf("torn record: %d-byte payload, %d bytes left", n, len(data)-frameSize)}
		}
		want := binary.LittleEndian.Uint32(data[4:])
		payload := data[frameSize : frameSize+int(n)]
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return payloads, offsets, &CorruptionError{Offset: base + off, Record: rec, Reason: fmt.Sprintf("checksum mismatch: stored %08x, computed %08x", want, got)}
		}
		payloads = append(payloads, payload)
		offsets = append(offsets, base+off)
		data = data[frameSize+int(n):]
		off += int64(frameSize + int(n))
		rec++
	}
	return payloads, offsets, nil
}
