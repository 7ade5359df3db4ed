package persist

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// corpusSeeds builds the committed seed inputs for both fuzzers: a valid
// encoding of every payload family plus a few deliberately damaged ones. The
// same bytes are written to testdata/fuzz/ by TestFuzzCorpusCommitted so `go
// test -fuzz` starts from meaningful structures, not just empty input.
func walCorpusSeeds() [][]byte {
	rec := AppendEventRecord(nil, core.EventRecord{
		Seq: 7, Class: core.EventArrival, Time: 3.5, ItemID: 12, BinID: 2, Placed: true, Opened: true,
	})
	crash := AppendEventRecord(nil, core.EventRecord{Seq: 9, Class: core.EventCrash, Time: 11.25, ItemID: -1, BinID: 4})
	l := item.NewList(2)
	l.Add(0, 4, vector.Vector{0.5, 0.25})
	meta := encodeMeta(NewRunMeta(l, "FirstFit", 1, "mtbf(20)"))
	aux := encodeAux("metrics", []byte(`{"metrics":[]}`))
	return [][]byte{
		rec,
		crash,
		meta,
		aux,
		rec[:len(rec)-2],     // truncated
		append(rec, 1, 2, 3), // trailing bytes
		{0xFF, 0x00, 0x01},   // junk
		{},                   // empty
	}
}

func snapshotCorpusSeeds() [][]byte {
	l := item.NewList(2)
	l.Add(0, 6, vector.Vector{0.5, 0.25})
	l.Add(1, 3, vector.Vector{0.25, 0.5})
	l.Add(2, 5, vector.Vector{0.125, 0.125})
	p, err := core.NewPolicy("MoveToFront", 1)
	if err != nil {
		panic(err)
	}
	e, err := core.NewEngine(l, p)
	if err != nil {
		panic(err)
	}
	defer e.Close()
	for i := 0; i < 3; i++ {
		if _, ok, err := e.Step(); err != nil || !ok {
			panic(fmt.Sprintf("seed engine step %d: ok=%v err=%v", i, ok, err))
		}
	}
	snap, err := e.Snapshot()
	if err != nil {
		panic(err)
	}
	enc := EncodeSnapshot(snap)
	return [][]byte{
		enc,
		enc[:len(enc)/2],  // truncated
		append(enc, 0xAA), // trailing byte
		{0x01},            // bare version byte
		{},                // empty
	}
}

func opLogCorpusSeeds() [][]byte {
	itemOp := AppendItemOp(nil, 2.5, 7.75, vector.Vector{0.5, 0.125})
	advance := AppendAdvanceOp(nil, 9.5)
	marker := encodeCompactMarker(40)
	return [][]byte{
		itemOp,
		advance,
		marker,
		itemOp[:len(itemOp)-3],           // truncated item
		append(advance, 0xEE),            // trailing byte
		AppendAdvanceOp(nil, math.NaN()), // NaN advance must be rejected
		{byte(OpItem)},                   // kind byte only
		{0x7A, 0x01, 0x02},               // unknown kind
		{},                               // empty
		append([]byte{compactMarkerByte}, 0x80, 2), // non-canonical varint
	}
}

// FuzzOpLogDecode: the op-log record codec and the compaction marker parser
// must survive arbitrary bytes — no panic, only *CorruptionError — and any
// accepted payload must re-encode bit-identically, so no two byte strings
// decode to the same op.
func FuzzOpLogDecode(f *testing.F) {
	for _, seed := range opLogCorpusSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range []int{1, 2, 4} {
			op, err := DecodeOp(data, d)
			if err != nil {
				var ce *CorruptionError
				if !errors.As(err, &ce) {
					t.Fatalf("DecodeOp(d=%d): non-corruption error %T: %v", d, err, err)
				}
				continue
			}
			var got []byte
			switch op.Kind {
			case OpItem:
				got = AppendItemOp(nil, op.Arrival, op.Departure, op.Size)
			case OpAdvance:
				got = AppendAdvanceOp(nil, op.To)
			default:
				t.Fatalf("DecodeOp(d=%d) accepted unknown kind %#x", d, op.Kind)
			}
			if string(got) != string(data) {
				t.Fatalf("re-encode mismatch (d=%d): % x -> %+v -> % x", d, data, op, got)
			}
		}
		if base, err := decodeCompactMarker(data); err == nil {
			if got := encodeCompactMarker(base); string(got) != string(data) {
				t.Fatalf("marker re-encode mismatch: % x -> %d -> % x", data, base, got)
			}
		} else {
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("decodeCompactMarker: non-corruption error %T: %v", err, err)
			}
		}
	})
}

// FuzzWALDecode: every decoder that consumes WAL record payloads must survive
// arbitrary bytes — no panic, no runaway allocation, and any failure surfaced
// as a structured *CorruptionError.
func FuzzWALDecode(f *testing.F) {
	for _, seed := range walCorpusSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, err := DecodeEventRecord(data); err != nil {
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("DecodeEventRecord: non-corruption error %T: %v", err, err)
			}
		} else {
			// A successful decode must re-encode to the same bytes: the codec
			// is a bijection on its valid domain.
			if got := AppendEventRecord(nil, rec); string(got) != string(data) {
				t.Fatalf("re-encode mismatch: % x -> %+v -> % x", data, rec, got)
			}
		}
		if _, err := decodeMeta(data); err != nil {
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("decodeMeta: non-corruption error %T: %v", err, err)
			}
		}
		if _, _, err := decodeAux(data); err != nil {
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("decodeAux: non-corruption error %T: %v", err, err)
			}
		}
	})
}

// FuzzSnapshotDecode: the snapshot codec must survive arbitrary bytes — no
// panic, only *CorruptionError — and anything it does accept must re-encode
// to the identical payload.
func FuzzSnapshotDecode(f *testing.F) {
	for _, seed := range snapshotCorpusSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("DecodeSnapshot: non-corruption error %T: %v", err, err)
			}
			return
		}
		if got := EncodeSnapshot(snap); string(got) != string(data) {
			t.Fatalf("re-encode mismatch on %d-byte accepted payload", len(data))
		}
	})
}

// TestFuzzCorpusCommitted keeps the committed seed corpus under testdata/fuzz
// in sync with the generators above: any drift (format change, new seed)
// rewrites the files and fails once, so the refreshed corpus gets committed.
func TestFuzzCorpusCommitted(t *testing.T) {
	write := func(fuzzName string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			// Go's seed corpus file format, version 1.
			content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			old, err := os.ReadFile(path)
			if err == nil && string(old) == content {
				continue
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("%s: corpus file rewritten; commit the update", path)
		}
	}
	write("FuzzOpLogDecode", opLogCorpusSeeds())
	write("FuzzWALDecode", walCorpusSeeds())
	write("FuzzSnapshotDecode", snapshotCorpusSeeds())
}
