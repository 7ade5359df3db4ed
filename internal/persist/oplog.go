package persist

import (
	"encoding/binary"
	"fmt"
	"math"

	"dvbp/internal/item"
	"dvbp/internal/vector"
	"dvbp/internal/vfs"
)

// The operation log (KindOpLog, ops.dvbp) is a run's one durable log. A
// dynamic run's log holds its inputs: one record per admitted client
// operation, appended and fsynced BEFORE the engine steps the operation's
// events. Every event is therefore a deterministic function of a durable
// prefix of the log, and recovery re-steps the engine to the position the
// log pins. Both static and dynamic runs add digest marks, which recovery
// checks the re-stepped events against (DESIGN.md §10).
//
// Record payload layouts (after the shared meta record):
//
//	item    : 'i' | arrival float64 LE | departure float64 LE | size d×float64 LE
//	advance : 'a' | to float64 LE
//	mark    : 'm' | event seq varint | digest uint64 LE
//
// Item IDs are implicit: the k-th item record is item k, matching the IDs
// core.Engine.AppendArrival assigns.

// OpKind labels one op-log record.
type OpKind byte

// The op-log record kinds.
const (
	// OpItem admits one item: it arrives at Arrival, departs at Departure,
	// and its ID is its zero-based position among the log's item records.
	OpItem OpKind = 'i'
	// OpAdvance moves the run's logical clock forward to To, committing
	// every pending engine event at or before it (departures included).
	OpAdvance OpKind = 'a'
	// OpMark records the event digest Digest after event Seq committed.
	OpMark OpKind = 'm'
)

// Op is one decoded op-log record.
type Op struct {
	Kind               OpKind
	Arrival, Departure float64       // OpItem
	Size               vector.Vector // OpItem
	To                 float64       // OpAdvance
	Seq                int64         // OpMark
	Digest             uint64        // OpMark
}

// AppendItemOp serialises an item-admission record onto dst.
func AppendItemOp(dst []byte, arrival, departure float64, size vector.Vector) []byte {
	dst = append(dst, byte(OpItem))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(arrival))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(departure))
	for _, s := range size {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s))
	}
	return dst
}

// AppendAdvanceOp serialises a clock-advance record onto dst.
func AppendAdvanceOp(dst []byte, to float64) []byte {
	dst = append(dst, byte(OpAdvance))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(to))
}

// appendMark serialises a digest mark onto dst. Snapshot files carry the
// same payload for the digest at their event.
func appendMark(dst []byte, seq int64, digest uint64) []byte {
	dst = append(dst, byte(OpMark))
	dst = binary.AppendVarint(dst, seq)
	return binary.LittleEndian.AppendUint64(dst, digest)
}

// DecodeOp is the inverse of the op-log record encoders for a d-dimensional
// run. Malformed payloads of any shape return a *CorruptionError, never
// panic.
func DecodeOp(payload []byte, d int) (Op, error) {
	var op Op
	if len(payload) < 1 {
		return op, corrupt("empty op record")
	}
	op.Kind = OpKind(payload[0])
	p := payload[1:]
	switch op.Kind {
	case OpItem:
		if len(p) != (2+d)*8 {
			return op, corrupt("item op has %d payload bytes, want %d for d=%d", len(p), (2+d)*8, d)
		}
		op.Arrival = math.Float64frombits(binary.LittleEndian.Uint64(p))
		op.Departure = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
		op.Size = vector.New(d)
		for i := 0; i < d; i++ {
			op.Size[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[16+8*i:]))
		}
	case OpAdvance:
		if len(p) != 8 {
			return op, corrupt("advance op has %d payload bytes, want 8", len(p))
		}
		op.To = math.Float64frombits(binary.LittleEndian.Uint64(p))
		if math.IsNaN(op.To) {
			return op, corrupt("advance op to NaN")
		}
	case OpMark:
		seq, n, ok := canonVarint(p)
		if !ok || len(p) != n+8 {
			return op, corrupt("malformed mark record")
		}
		if seq < 0 {
			return op, corrupt("mark at event %d < 0", seq)
		}
		op.Seq, op.Digest = seq, binary.LittleEndian.Uint64(p[n:])
	default:
		return op, corrupt("unknown op kind %#x", payload[0])
	}
	return op, nil
}

// OpLogData is a read operation log: the run identity, the item list rebuilt
// from a dynamic run's item records, the admission watermark it must resume
// at, and the digest marks.
type OpLogData struct {
	// Meta is the run's identity (the log's first record).
	Meta RunMeta
	// List is the item list rebuilt from the item records, in log order;
	// empty for a static run, whose log holds no items.
	List *item.List
	// Watermark is the run's admission floor: the largest arrival or advance
	// target in the log. New arrivals below it would rewrite history.
	Watermark float64
	// MaxAdvance is the largest advance target (0 when none was logged);
	// recovery re-steps the clock to it so acknowledged departures stay
	// committed.
	MaxAdvance float64
	// ValidSize is the byte prefix covered by intact records; Torn describes
	// the discarded tail, nil when the file is clean.
	ValidSize int64
	Torn      *CorruptionError

	marks []Op // the OpMark records, strictly ascending by Seq
}

// ReadOpLog reads and validates an operation log. A torn or
// checksum-damaged tail only truncates — the intact prefix is returned and
// the defect reported in Torn — while a damaged header or meta record is
// fatal. label names the run in every reported corruption. fsys nil means the
// real filesystem.
func ReadOpLog(fsys vfs.FS, path, label string) (*OpLogData, error) {
	fd, err := ReadFile(fsys, path)
	if err != nil {
		if ce, ok := err.(*CorruptionError); ok {
			ce.Run = label
		}
		return nil, err
	}
	return decodeOpLog(fd, path, label)
}

// decodeOpLog validates the records of an op-log file.
func decodeOpLog(fd *FileData, path, label string) (*OpLogData, error) {
	at := func(ce *CorruptionError, rec int) *CorruptionError {
		ce.Run, ce.Path, ce.Offset, ce.Record = label, path, fd.Offsets[rec], rec
		return ce
	}
	if fd.Kind != KindOpLog {
		return nil, &CorruptionError{Run: label, Path: path, Offset: -1, Record: -1, Reason: fmt.Sprintf("expected an op log, found kind %d", fd.Kind)}
	}
	if fd.Torn != nil {
		fd.Torn.Run = label
	}
	if len(fd.Records) == 0 {
		return nil, &CorruptionError{Run: label, Path: path, Offset: headerSize, Record: 0, Reason: "no run meta record survived"}
	}
	meta, err := decodeMeta(fd.Records[0])
	if err != nil {
		return nil, at(err.(*CorruptionError), 0)
	}
	if meta.Dim < 1 || meta.Dim > maxPayload/8 {
		return nil, at(corrupt("run meta has dimension %d", meta.Dim), 0)
	}
	out := &OpLogData{Meta: meta, List: item.NewList(meta.Dim), ValidSize: fd.ValidSize, Torn: fd.Torn}
	for i, payload := range fd.Records[1:] {
		rec := i + 1
		op, err := DecodeOp(payload, meta.Dim)
		if err != nil {
			// An undecodable record truncates the log there, like a torn
			// tail: everything after it is unordered against the lost op.
			out.Torn = at(err.(*CorruptionError), rec)
			out.ValidSize = fd.Offsets[rec]
			break
		}
		if op.Kind != OpMark && !meta.Dynamic {
			return nil, at(corrupt("op %q in a static run's log", rune(op.Kind)), rec)
		}
		switch op.Kind {
		case OpItem:
			id := out.List.Add(op.Arrival, op.Departure, op.Size)
			if err := out.List.Items[id].Validate(meta.Dim); err != nil {
				return nil, at(corrupt("invalid item op: %v", err), rec)
			}
			if op.Arrival < out.Watermark {
				return nil, at(corrupt("item op at arrival %g regresses below watermark %g", op.Arrival, out.Watermark), rec)
			}
			out.Watermark = op.Arrival
		case OpAdvance:
			if op.To < out.Watermark {
				return nil, at(corrupt("advance op to %g regresses below watermark %g", op.To, out.Watermark), rec)
			}
			out.Watermark = op.To
			out.MaxAdvance = op.To
		case OpMark:
			if n := len(out.marks); n > 0 && op.Seq <= out.marks[n-1].Seq {
				return nil, at(corrupt("mark at event %d does not follow the mark at event %d", op.Seq, out.marks[n-1].Seq), rec)
			}
			out.marks = append(out.marks, op)
		}
	}
	return out, nil
}
