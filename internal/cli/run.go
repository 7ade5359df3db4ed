package cli

import (
	"context"
	"fmt"
	"os"
	"strings"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/persist"
	"dvbp/internal/vfs"
	"dvbp/internal/workload"
)

// LoadInstance reads the trace at path (JSON when it ends in .json, CSV
// otherwise) or, when path is empty, generates the paper's uniform model
// from the generator flags.
func LoadInstance(path string, d, n, mu, horizon, binSize int, seed int64) (*item.List, error) {
	if path == "" {
		return workload.Uniform(workload.UniformConfig{D: d, N: n, Mu: mu, T: horizon, B: binSize}, seed)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return workload.ReadJSON(f)
	}
	return workload.ReadCSV(f)
}

// RunConfig shapes one policy's run: a plain in-memory simulation when Dir
// is empty, otherwise one persisted through internal/persist and, with
// Restore, resumed from Dir. A persisted run writes only its op log, and a
// restore re-steps it from event 0, checking every digest mark and feeding
// every observer in opts (a -metrics collector) every event.
type RunConfig struct {
	Tool    string // prefixes every line the run writes to stderr
	Dir     string // checkpoint directory; "" simulates in memory
	Restore bool   // resume the run persisted in Dir instead of starting fresh
	// KillAt makes the run exit with ExitKilled once this many events are
	// persisted, skipping every flush and sync, so Dir is left exactly as a
	// SIGKILL would leave it; −1 never kills.
	KillAt int64
	// FS is the checkpoint filesystem; nil means the OS. When it is a
	// *vfs.Injector, a finished run reports on stderr the disk faults it
	// absorbed.
	FS vfs.FS
	// Seed, Faults and Migration are recorded in a fresh run's meta.
	Seed      int64
	Faults    string
	Migration string
}

// RunPolicy runs p over l as rc says. The context is checked between
// events, so a cancelled or expired run leaves its checkpoint directory
// resumable.
func RunPolicy(ctx context.Context, l *item.List, p core.Policy, opts []core.Option, rc RunConfig) (*core.Result, error) {
	if rc.Dir == "" {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return core.Simulate(l, p, opts...)
	}
	pcfg := persist.Config{Dir: rc.Dir, FS: rc.FS}
	var s *persist.Session
	if rc.Restore {
		// Recover rebuilds the engine (and policy) from the run's own
		// metadata; p only matters for fresh runs.
		rec, err := persist.Recover(l, pcfg, opts...)
		if err != nil {
			return nil, err
		}
		for _, ce := range rec.Corruptions {
			fmt.Fprintln(os.Stderr, rc.Tool+": tolerated:", ce)
		}
		fmt.Fprintf(os.Stderr, "%s: resumed at event %d (snapshot %d + %d replayed)\n",
			rc.Tool, rec.Session.Engine().EventSeq(), rec.SnapshotSeq, rec.Replayed)
		s = rec.Session
	} else {
		e, err := core.NewEngine(l, p, opts...)
		if err != nil {
			return nil, err
		}
		meta := persist.NewRunMeta(l, p.Name(), rc.Seed, rc.Faults)
		meta.Migration = rc.Migration
		s, err = persist.Begin(e, meta, pcfg)
		if err != nil {
			e.Close()
			return nil, err
		}
	}
	for {
		if rc.KillAt >= 0 && s.Engine().EventSeq() >= rc.KillAt {
			fmt.Fprintf(os.Stderr, "%s: kill-at %d reached: dying without cleanup\n", rc.Tool, rc.KillAt)
			os.Exit(ExitKilled)
		}
		if err := ctx.Err(); err != nil {
			s.Close()
			return nil, err
		}
		_, ok, err := s.Step()
		if err != nil {
			s.Close()
			return nil, err
		}
		if !ok {
			if _, ok := rc.FS.(*vfs.Injector); ok {
				st := s.TakeIOStats()
				fmt.Fprintf(os.Stderr, "%s: disk weather: %d absorbed sync failures\n", rc.Tool, st.SyncFailures)
			}
			return s.Finish()
		}
	}
}
