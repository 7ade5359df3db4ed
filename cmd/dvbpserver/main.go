// Command dvbpserver serves MinUsageTime DVBP placement as a crash-tolerant
// multi-tenant HTTP service (DESIGN.md §12).
//
// Each tenant is an independent online packing run — its own Any Fit policy,
// dimension, seed, op log and snapshots under -data/<tenant>/ — driven
// through a JSON API:
//
//	POST /v1/tenants                    create a tenant
//	GET  /v1/tenants                    list tenants
//	GET  /v1/tenants/{name}             status: watermark, cost, open bins
//	DELETE /v1/tenants/{name}           drain and remove a tenant
//	POST /v1/tenants/{name}/place       place an item (acknowledged = durable)
//	POST /v1/tenants/{name}/advance     advance the tenant clock
//	GET  /v1/tenants/{name}/placements  the acknowledged placement stream
//	GET  /healthz, /readyz, /metrics    liveness, readiness, Prometheus/JSON
//
// Every acknowledged placement survives SIGKILL: a batch's ops are fsynced to
// the op log before the engine steps them and the client hears back. On
// restart the store re-steps every manifest tenant from its newest snapshot
// to the position its op log pins, and /readyz turns 200 only once all of
// them are byte-identically recovered.
//
// SIGTERM and SIGINT drain gracefully: /readyz flips to 503, mutating
// endpoints refuse with a Retry-After, queued batches finish and fsync, then
// the process exits 0.
//
// Examples:
//
//	dvbpserver -data /var/lib/dvbp
//	dvbpserver -addr 127.0.0.1:0 -data ./state -queue-depth 512 -deadline 2s
//	dvbpserver -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dvbp/internal/cli"
	"dvbp/internal/core"
	"dvbp/internal/metrics"
	"dvbp/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (use port 0 to pick a free port; the bound address is printed)")
		dataDir    = flag.String("data", "", "data directory holding the tenant manifest, op logs and snapshots (required)")
		queueDepth = flag.Int("queue-depth", 0, "per-tenant request queue bound; a full queue answers 429 (0 = default 256)")
		batchMax   = flag.Int("batch-max", 0, "max requests per group commit (0 = default 64)")
		deadline   = flag.Duration("deadline", 0, "per-request budget from enqueue; expired requests answer 503 (0 = none)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "budget for the graceful drain on SIGTERM/SIGINT")
		ioRetries  = flag.Int("io-retries", 0, "transient I/O failure retries at each durability barrier before the tenant degrades to read-only (0 = default 3, negative = none)")
		ioBackoff  = flag.Duration("io-backoff", 0, "sleep before the first I/O retry, doubling per attempt up to 100ms (0 = default 2ms)")
		list       = flag.Bool("list", false, "list accepted tenant policy spellings and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(core.PolicySpellings(), "\n"))
		return
	}
	if *dataDir == "" {
		fatal(errors.New("-data directory is required"))
	}

	reg := metrics.NewRegistry()
	store, err := server.OpenStore(*dataDir, server.Limits{
		QueueDepth:    *queueDepth,
		BatchMax:      *batchMax,
		Deadline:      *deadline,
		RetryAttempts: *ioRetries,
		RetryBackoff:  *ioBackoff,
	}, reg)
	if err != nil {
		fatal(err)
	}
	srv := server.New(store, reg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		store.Close()
		fatal(err)
	}
	// The bound address goes to stdout as the first line so wrappers (and the
	// restart-under-load harness) can drive -addr :0 servers.
	fmt.Printf("dvbpserver: listening on http://%s data=%s tenants=%d\n",
		ln.Addr(), *dataDir, len(store.List()))

	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-serveErr:
		store.Close()
		fatal(fmt.Errorf("serving: %w", err))
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "dvbpserver: %s: draining\n", sig)
	}

	// Graceful shutdown: stop admitting mutations, finish and fsync what is
	// queued, then close every tenant's session. A second signal or an
	// expired budget abandons the drain with the timeout exit code — the
	// on-disk state is still consistent (that is the whole durability story),
	// only unacknowledged work is dropped.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	done := make(chan struct{})
	go func() {
		httpSrv.Shutdown(ctx)
		store.Close()
		close(done)
	}()
	select {
	case <-done:
		fmt.Fprintln(os.Stderr, "dvbpserver: drained")
	case <-ctx.Done():
		fatal(fmt.Errorf("drain: %w", context.DeadlineExceeded))
	case sig := <-sigs:
		fatal(fmt.Errorf("drain interrupted by %s: %w", sig, context.Canceled))
	}
}

func fatal(err error) {
	cli.Fatal("dvbpserver", err)
}
