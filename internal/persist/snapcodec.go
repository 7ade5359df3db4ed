package persist

import (
	"encoding/binary"
	"math"

	"dvbp/internal/core"
)

// Snapshot payload codec: hand-rolled binary, varint integers, float64s as
// raw bits (bit-exact round-trip — the engine's determinism contract is over
// float bit patterns, so text formats are out). The decoder works over an
// untrusted byte slice: every count is validated against the bytes actually
// remaining before it sizes an allocation, and every failure is a
// *CorruptionError — never a panic. Deeper semantic validation (bin/item
// cross-references, accumulator integrity) happens in core.RestoreEngine.

// snapCodecVersion versions the snapshot payload independently of the file
// framing. Version 5 stores only what core.RestoreEngine cannot derive: the
// progress counters, the policy state, the open bins' IDs, active items and
// load sums, the peak, the cost and the bin of each committed arrival.
// Version 4 also stored each open bin's opening time and packed count and
// every closed bin's record, version 3 the pending departures, a partial
// core.Result and the outcome of every served item, and version 2 the fault,
// queue and migration sections; all three are refused like any unknown
// version, so recovery re-steps the op log past them.
const snapCodecVersion = 5

// EncodeSnapshot serialises an engine snapshot.
func EncodeSnapshot(s *core.Snapshot) []byte {
	b := &benc{}
	b.uvarint(snapCodecVersion)
	b.varint(s.EventSeq)
	b.varint(int64(s.ArrivalIdx))
	b.varint(int64(s.NextBinID))
	b.varint(int64(s.Served))
	b.varint(int64(s.Dim))
	b.varint(int64(s.Items))
	b.str(s.PolicyName)
	b.bytes(s.PolicyState)

	b.uvarint(uint64(len(s.Bins)))
	for _, bin := range s.Bins {
		b.varint(int64(bin.ID))
		b.uvarint(uint64(len(bin.ActiveIDs)))
		for _, id := range bin.ActiveIDs {
			b.varint(int64(id))
		}
		b.uvarint(uint64(len(bin.Acc)))
		for _, acc := range bin.Acc {
			b.bytes(acc)
		}
	}

	b.varint(int64(s.MaxConcurrentBins))
	b.f64(s.Cost)
	b.uvarint(uint64(len(s.Placed)))
	for _, id := range s.Placed {
		b.varint(int64(id))
	}
	return b.buf
}

// DecodeSnapshot is the inverse of EncodeSnapshot over untrusted bytes.
func DecodeSnapshot(payload []byte) (*core.Snapshot, error) {
	d := &bdec{buf: payload}
	if v := d.uvarint(); v != snapCodecVersion {
		if d.fail == nil {
			return nil, corrupt("unsupported snapshot codec version %d", v)
		}
		return nil, d.fail
	}
	s := &core.Snapshot{}
	s.EventSeq = d.varint()
	s.ArrivalIdx = d.int()
	s.NextBinID = d.int()
	s.Served = d.int()
	s.Dim = d.int()
	s.Items = d.int()
	s.PolicyName = d.str()
	s.PolicyState = d.bytes()

	// Each element consumes at least minElem bytes, so a count claiming more
	// elements than remaining bytes is rejected before any allocation.
	nBins := d.count(3)
	for i := 0; i < nBins && d.fail == nil; i++ {
		var bin core.BinSnapshot
		bin.ID = d.int()
		nAct := d.count(1)
		for j := 0; j < nAct && d.fail == nil; j++ {
			bin.ActiveIDs = append(bin.ActiveIDs, d.int())
		}
		nAcc := d.count(1)
		for j := 0; j < nAcc && d.fail == nil; j++ {
			bin.Acc = append(bin.Acc, d.bytes())
		}
		s.Bins = append(s.Bins, bin)
	}

	s.MaxConcurrentBins = d.int()
	s.Cost = d.f64()
	s.Placed = make([]int, d.count(1))
	for i := range s.Placed {
		s.Placed[i] = d.int()
	}
	if d.fail != nil {
		return nil, d.fail
	}
	if len(d.buf) != 0 {
		return nil, corrupt("snapshot has %d trailing bytes", len(d.buf))
	}
	return s, nil
}

// benc is the append-only snapshot encoder.
type benc struct{ buf []byte }

func (b *benc) uvarint(v uint64) { b.buf = binary.AppendUvarint(b.buf, v) }
func (b *benc) varint(v int64)   { b.buf = binary.AppendVarint(b.buf, v) }
func (b *benc) f64(v float64) {
	b.buf = binary.LittleEndian.AppendUint64(b.buf, math.Float64bits(v))
}
func (b *benc) bytes(p []byte) {
	b.uvarint(uint64(len(p)))
	b.buf = append(b.buf, p...)
}
func (b *benc) str(s string) { b.bytes([]byte(s)) }

// bdec decodes the snapshot format from an untrusted slice. The first
// failure latches into fail and turns every later read into a cheap no-op,
// so call sites can decode whole structures and check fail once.
type bdec struct {
	buf  []byte
	fail *CorruptionError
}

func (d *bdec) fatal(format string, args ...any) {
	if d.fail == nil {
		d.fail = corrupt(format, args...)
	}
}

func (d *bdec) uvarint() uint64 {
	if d.fail != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fatal("truncated varint")
		return 0
	}
	var tmp [binary.MaxVarintLen64]byte
	if binary.PutUvarint(tmp[:], v) != n {
		d.fatal("non-canonical varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *bdec) varint() int64 {
	if d.fail != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fatal("truncated varint")
		return 0
	}
	var tmp [binary.MaxVarintLen64]byte
	if binary.PutVarint(tmp[:], v) != n {
		d.fatal("non-canonical varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// int decodes a varint that must fit a platform int.
func (d *bdec) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fatal("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

func (d *bdec) f64() float64 {
	if d.fail != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fatal("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

func (d *bdec) bytes() []byte {
	n := d.uvarint()
	if d.fail != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fatal("byte blob of %d bytes with %d remaining", n, len(d.buf))
		return nil
	}
	out := append([]byte(nil), d.buf[:n]...)
	d.buf = d.buf[n:]
	if len(out) == 0 {
		return nil
	}
	return out
}

func (d *bdec) str() string { return string(d.bytes()) }

// count decodes an element count and rejects it unless at least count *
// minElem bytes remain — the allocation guard for untrusted input.
func (d *bdec) count(minElem int) int {
	n := d.uvarint()
	if d.fail != nil {
		return 0
	}
	if n > uint64(len(d.buf))/uint64(minElem) {
		d.fatal("count %d impossible with %d bytes remaining", n, len(d.buf))
		return 0
	}
	return int(n)
}
