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

// The *CorpusSeeds functions build the committed seed inputs for the
// fuzzers: a valid encoding of every payload family plus a few deliberately
// damaged ones. The same bytes are written to testdata/fuzz/ by
// TestFuzzCorpusCommitted so `go test -fuzz` starts from meaningful
// structures, not just empty input.
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
		enc[:len(enc)/2],   // truncated
		append(enc, 0xAA),  // trailing byte
		{snapCodecVersion}, // bare version byte
		{},                 // empty
	}
}

func opLogCorpusSeeds() [][]byte {
	itemOp := AppendItemOp(nil, 2.5, 7.75, vector.Vector{0.5, 0.125})
	advance := AppendAdvanceOp(nil, 9.5)
	mark := appendMark(nil, 40, 0x0123456789abcdef)
	l := item.NewList(2)
	l.Add(0, 4, vector.Vector{0.5, 0.25})
	static := encodeMeta(NewRunMeta(l, "FirstFit", 1, "mtbf(20)"))
	dynamic := encodeMeta(NewDynamicRunMeta(2, "BestFit", 3, ""))
	file := func(records ...[]byte) []byte {
		out := appendHeader(nil, KindOpLog)
		for _, r := range records {
			out = appendRecord(out, r)
		}
		return out
	}
	return [][]byte{
		itemOp,
		advance,
		mark,
		itemOp[:len(itemOp)-3],           // truncated item
		append(advance, 0xEE),            // trailing byte
		AppendAdvanceOp(nil, math.NaN()), // NaN advance must be rejected
		{byte(OpItem)},                   // kind byte only
		{0x7A, 0x01, 0x02},               // unknown kind
		{},                               // empty
		append([]byte{byte(OpMark), 0x80, 2}, make([]byte, 8)...),                                                    // non-canonical varint
		file(static, appendMark(nil, 64, 7), appendMark(nil, 128, 9)),                                                // a static log
		file(dynamic, itemOp, advance, appendMark(nil, 2, 5), AppendItemOp(nil, 9.5, 12, vector.Vector{0.25, 0.25})), // a dynamic log
		file(static, appendMark(nil, 64, 7), appendMark(nil, 64, 8)),                                                 // marks out of order
		static,
	}
}

// FuzzOpLogDecode: the op-log record codec, the run meta decoder and the
// op-log file reader must survive arbitrary bytes — no panic, only
// *CorruptionError — and any accepted record must re-encode bit-identically,
// so no two byte strings decode to the same op.
func FuzzOpLogDecode(f *testing.F) {
	for _, seed := range opLogCorpusSeeds() {
		f.Add(seed)
	}
	structured := func(t *testing.T, what string, err error) {
		var ce *CorruptionError
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("%s: non-corruption error %T: %v", what, err, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range []int{1, 2, 4} {
			op, err := DecodeOp(data, d)
			if err != nil {
				structured(t, "DecodeOp", err)
				continue
			}
			var got []byte
			switch op.Kind {
			case OpItem:
				got = AppendItemOp(nil, op.Arrival, op.Departure, op.Size)
			case OpAdvance:
				got = AppendAdvanceOp(nil, op.To)
			case OpMark:
				got = appendMark(nil, op.Seq, op.Digest)
			default:
				t.Fatalf("DecodeOp(d=%d) accepted unknown kind %#x", d, op.Kind)
			}
			if string(got) != string(data) {
				t.Fatalf("re-encode mismatch (d=%d): % x -> %+v -> % x", d, data, op, got)
			}
		}
		_, err := decodeMeta(data)
		structured(t, "decodeMeta", err)
		fd, err := decodeFile(data, "ops.dvbp")
		structured(t, "decodeFile", err)
		if err == nil {
			_, err := decodeOpLog(fd, "ops.dvbp", "fuzz")
			structured(t, "decodeOpLog", err)
		}
	})
}

// FuzzSnapshotDecode: the snapshot codec must survive arbitrary bytes — no
// panic, only *CorruptionError — and any snapshot payload it accepts must
// re-encode to the identical bytes.
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
	write("FuzzSnapshotDecode", snapshotCorpusSeeds())
}
