package persist

import (
	"encoding/json"
	"fmt"
	"hash/crc64"
	"math"

	"dvbp/internal/item"
)

// RunMeta identifies the run a persisted file belongs to. It is the first
// record of every op log and snapshot file; recovery refuses to combine files
// whose metas disagree, and refuses to restore against an instance whose
// shape or content hash does not match.
type RunMeta struct {
	// Policy is the registry name of the packing policy.
	Policy string `json:"policy"`
	// Seed is the seed the run was started with (RandomFit construction; the
	// snapshot's policy state supersedes it on restore).
	Seed int64 `json:"seed"`
	// Dim and Items are the instance shape.
	Dim   int `json:"dim"`
	Items int `json:"items"`
	// WorkloadHash is HashWorkload of the instance, hex-encoded.
	WorkloadHash string `json:"workload_hash"`
	// FaultPlan is the fault configuration's display string ("" when the run
	// is fault-free). Informational: options are re-supplied on recovery.
	FaultPlan string `json:"fault_plan,omitempty"`
	// Migration is the migration configuration's display string ("" when
	// placements are irrevocable, the paper's model). Informational, like
	// FaultPlan: the WithMigration option is re-supplied on recovery, and
	// replay verification catches a mismatched planner immediately.
	Migration string `json:"migration,omitempty"`
	// Dynamic marks a dynamic-arrival run (core.WithDynamicArrivals): the
	// item list grows while the run is live, so Items and WorkloadHash cannot
	// be pinned up front. Content integrity comes from the op log (each op
	// record is CRC-guarded) plus the digest marks recovery checks the
	// re-stepped events against.
	Dynamic bool `json:"dynamic,omitempty"`
}

// NewRunMeta builds the metadata for a run over l.
func NewRunMeta(l *item.List, policy string, seed int64, faultPlan string) RunMeta {
	return RunMeta{
		Policy:       policy,
		Seed:         seed,
		Dim:          l.Dim,
		Items:        l.Len(),
		WorkloadHash: fmt.Sprintf("%016x", HashWorkload(l)),
		FaultPlan:    faultPlan,
	}
}

// dynamicHash is the WorkloadHash sentinel of dynamic runs, whose workload
// is not known when the run starts.
const dynamicHash = "dynamic"

// NewDynamicRunMeta builds the metadata for a dynamic-arrival run: the item
// list starts empty and grows with the op log, so only the dimension (and the
// policy identity) is pinned.
func NewDynamicRunMeta(dim int, policy string, seed int64, faultPlan string) RunMeta {
	return RunMeta{
		Policy:       policy,
		Seed:         seed,
		Dim:          dim,
		WorkloadHash: dynamicHash,
		FaultPlan:    faultPlan,
		Dynamic:      true,
	}
}

// ecma is the CRC-64/ECMA table used for workload fingerprints.
var ecma = crc64.MakeTable(crc64.ECMA)

// HashWorkload fingerprints an instance: dimension, length, and every item's
// ID, interval, and size bits, in list order. Two lists hash equal iff a
// persisted run of one can be recovered against the other.
func HashWorkload(l *item.List) uint64 {
	buf := make([]byte, 0, 64)
	put := func(v uint64) {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	put(uint64(l.Dim))
	put(uint64(l.Len()))
	h := crc64.Update(0, ecma, buf)
	for _, it := range l.Items {
		buf = buf[:0]
		put(uint64(it.ID))
		put(uint64(it.SeqNo))
		put(math.Float64bits(it.Arrival))
		put(math.Float64bits(it.Departure))
		for _, s := range it.Size {
			put(math.Float64bits(s))
		}
		h = crc64.Update(h, ecma, buf)
	}
	return h
}

// encodeMeta serialises the meta record (JSON: small, versioned by field
// names, and safe to decode from arbitrary bytes).
func encodeMeta(m RunMeta) []byte {
	b, err := json.Marshal(m)
	if err != nil {
		// RunMeta is plain data; this cannot happen.
		panic("persist: " + err.Error())
	}
	return b
}

// decodeMeta parses a meta record.
func decodeMeta(payload []byte) (RunMeta, error) {
	var m RunMeta
	if err := json.Unmarshal(payload, &m); err != nil {
		return m, &CorruptionError{Offset: -1, Record: -1, Reason: "undecodable run meta", Err: err}
	}
	return m, nil
}

// check verifies that m describes a run over l. A mismatch is a user error
// (wrong directory or wrong instance), reported plainly rather than as
// corruption.
func (m RunMeta) check(l *item.List) error {
	if m.Dynamic {
		// The list is rebuilt from the op log and may cover any prefix
		// extension of the logged run; only the dimension is checkable here.
		// Replay verification vouches for the content.
		if m.WorkloadHash != dynamicHash {
			return fmt.Errorf("persist: dynamic run carries workload hash %q, want %q", m.WorkloadHash, dynamicHash)
		}
		if m.Dim != l.Dim {
			return fmt.Errorf("persist: run is over a d=%d instance, got d=%d", m.Dim, l.Dim)
		}
		return nil
	}
	if m.Dim != l.Dim || m.Items != l.Len() {
		return fmt.Errorf("persist: run is over a d=%d n=%d instance, got d=%d n=%d", m.Dim, m.Items, l.Dim, l.Len())
	}
	if want := fmt.Sprintf("%016x", HashWorkload(l)); m.WorkloadHash != want {
		return fmt.Errorf("persist: workload hash mismatch: run recorded %s, supplied instance hashes to %s", m.WorkloadHash, want)
	}
	return nil
}

// equal reports whether two metas describe the same run.
func (m RunMeta) equal(o RunMeta) bool { return m == o }
