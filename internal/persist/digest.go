package persist

import (
	"encoding/binary"
	"hash/crc64"
	"math"

	"dvbp/internal/core"
)

// The event digest (DESIGN.md §10). A session folds every committed engine
// event into a rolling CRC-64/ECMA over the event's record bytes, and writes
// the digest as a mark (event seq, digest) into the op log at its barriers
// and into every snapshot. Recovery re-steps the engine from a snapshot and
// compares its own digest at every mark it passes: the engine is
// deterministic, so a difference means a corrupt log or a run resumed under
// other options than it was started with.
//
// Event record layout (all integers varint unless noted):
//
//	class byte | seq | time float64-bits uint64 LE | itemID | binID | flags byte
//
// flags bit 0 = Placed, bit 1 = Opened. The class byte reuses the engine's
// stable EventClass values.

const eventFlagPlaced, eventFlagOpened = 1, 2

// AppendEventRecord serialises one committed engine event onto dst: the
// bytes the event digest folds in.
func AppendEventRecord(dst []byte, rec core.EventRecord) []byte {
	dst = append(dst, byte(rec.Class))
	dst = binary.AppendVarint(dst, rec.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Time))
	dst = binary.AppendVarint(dst, int64(rec.ItemID))
	dst = binary.AppendVarint(dst, int64(rec.BinID))
	var flags byte
	if rec.Placed {
		flags |= eventFlagPlaced
	}
	if rec.Opened {
		flags |= eventFlagOpened
	}
	return append(dst, flags)
}

// eventDigest is the rolling digest of a run's committed events.
type eventDigest struct {
	sum     uint64
	scratch []byte
}

// fold advances the digest over one committed event.
func (d *eventDigest) fold(rec core.EventRecord) {
	d.scratch = AppendEventRecord(d.scratch[:0], rec)
	d.sum = crc64.Update(d.sum, ecma, d.scratch)
}

// canonVarint decodes a varint and rejects overlong (non-canonical)
// encodings, so decode∘encode is the identity on every accepted payload.
func canonVarint(p []byte) (int64, int, bool) {
	v, n := binary.Varint(p)
	if n <= 0 {
		return 0, 0, false
	}
	var tmp [binary.MaxVarintLen64]byte
	if binary.PutVarint(tmp[:], v) != n {
		return 0, 0, false
	}
	return v, n, true
}
