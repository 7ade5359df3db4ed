// Command perfbench is the repository's benchmark. It runs one named
// workload against the real program, checks every output against an
// independent replica, and prints one JSON result line:
//
//	perfbench --workload serve-place --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the workload runs twice, untraced and then traced, and the result carries
// the per-layer metrics taken from the traced run's spans plus the tracing
// overhead on every end-to-end metric. README.md records why each workload
// and metric exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// metric is one named measurement.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// report is what one run of a workload produces.
type report struct {
	Attempted, Failed int
	// Problems lists every correctness-gate failure; empty means correct.
	Problems []string
	// Digest is built from exact output fields in a fixed order, so two
	// runs of one seed print the same value.
	Digest string
	// E2E holds the bounded end-to-end metrics, all of them; Unbounded the
	// other end-to-end metrics the workload measures, which only the traced
	// invocation prints. Layer is set by traced runs alone.
	E2E, Unbounded []metric
	Layer          map[string]float64
}

func (r *report) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runConfig is what every workload receives.
type runConfig struct {
	Seed    int64
	Seconds time.Duration
	// Work is a scratch directory inside the checkout, owned by this run.
	Work string
	// Tracer is nil for the untraced run.
	Tracer *tracer
}

// benchWorkload runs one measured window and its correctness gate.
type benchWorkload struct {
	name string
	run  func(rc runConfig) (*report, error)
}

// workloads is the fixed list, in the order README.md presents them.
var workloads = []benchWorkload{
	{"serve-place", func(rc runConfig) (*report, error) { return runServe(servePlace, rc) }},
	{"serve-mixed", func(rc runConfig) (*report, error) { return runServe(serveMixed, rc) }},
	{"sim-fleet", runSimFleet},
	{"sim-paper", runSimPaper},
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-place, serve-mixed, sim-fleet or sim-paper")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured window, in seconds")
	trace := flag.Int("trace", 0, "1 = also run traced and report per-layer metrics")
	work := flag.String("work", ".bench_build/perfbench-work", "scratch directory for data and traces")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *work); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, work string) error {
	var wl *benchWorkload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 || trace < 0 || trace > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rc := runConfig{Seed: seed, Seconds: time.Duration(seconds * float64(time.Second))}

	rc.Work = filepath.Join(dir, "untraced")
	base, err := wl.run(rc)
	if err != nil {
		return err
	}
	fmt.Printf("digest %s seed=%d sha256=%s\n", name, seed, base.Digest)
	out := base
	metrics, err := gated(base.E2E)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if trace == 1 {
		rc.Work = filepath.Join(dir, "traced")
		rc.Tracer = newTracer()
		traced, err := wl.run(rc)
		if err != nil {
			return err
		}
		if traced.Digest != base.Digest {
			traced.fail("traced digest %s differs from untraced %s", traced.Digest, base.Digest)
		}
		spans := filepath.Join(work, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := rc.Tracer.writeJSONL(spans); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", spans)
		vals := traced.Layer
		for _, m := range base.Unbounded {
			vals[m.Name] = m.Value
		}
		overheads(vals, append(base.E2E, base.Unbounded...), append(traced.E2E, traced.Unbounded...))
		if metrics, err = fillLayers(vals); err != nil {
			return err
		}
		out = &report{
			Attempted: base.Attempted + traced.Attempted,
			Failed:    base.Failed + traced.Failed,
			Problems:  append(base.Problems, traced.Problems...),
		}
	}
	for _, p := range out.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: INCORRECT: %s\n", p)
	}
	if err := printResult(out, metrics); err != nil {
		return err
	}
	if len(out.Problems) > 0 {
		return fmt.Errorf("%s: correctness gate failed (%d problems)", name, len(out.Problems))
	}
	return nil
}

// gated returns the bounded end-to-end metrics of ms in e2eMetrics order.
// Every workload must measure each of them, as a positive number, and
// nothing else.
func gated(ms []metric) ([]metric, error) {
	var out []metric
	for _, e := range e2eMetrics {
		if !e.bounded {
			continue
		}
		i := slices.IndexFunc(ms, func(m metric) bool { return m.Name == e.name })
		if i < 0 {
			return nil, fmt.Errorf("end-to-end metric %s not measured", e.name)
		}
		if m := ms[i]; m.Unit != e.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("end-to-end metric %s = %v %s, want a positive number in %s", e.name, m.Value, m.Unit, e.unit)
		}
		out = append(out, ms[i])
	}
	if len(out) != len(ms) {
		return nil, fmt.Errorf("%d end-to-end metrics measured, %d bounded", len(ms), len(out))
	}
	return out, nil
}

// overheads sets, for every end-to-end metric both runs measured, the share
// by which the traced run read worse than the untraced one.
func overheads(vals map[string]float64, base, traced []metric) {
	for _, e := range e2eMetrics {
		var b, t float64
		for _, m := range base {
			if m.Name == e.name {
				b = m.Value
			}
		}
		for _, m := range traced {
			if m.Name == e.name {
				t = m.Value
			}
		}
		if b <= 0 || t <= 0 {
			continue
		}
		if e.higherBetter {
			vals["trace.overhead."+e.name] = b/t - 1
		} else {
			vals["trace.overhead."+e.name] = t/b - 1
		}
	}
}

// printResult writes the result line the benchmark's caller parses: the
// last line of standard output.
func printResult(r *report, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(ms))
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
		if _, dup := vals[m.Name]; dup {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		vals[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.Problems) == 0, r.Attempted, r.Failed, vals})
	if err != nil {
		return err
	}
	names := make([]string, 0, len(ms))
	for _, m := range ms {
		names = append(names, fmt.Sprintf("%s=%.6g%s", m.Name, m.Value, m.Unit))
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
	fmt.Println(string(line))
	return nil
}
