// Command prodigy-serve is the experiment-sweep service: a long-running
// HTTP/JSON front end over the experiment harness (internal/exp) with a
// durable result cache, so heavy comparison grids (CI regression sweeps,
// cross-paper scheme matrices) are simulated once and replayed
// byte-identically forever after.
//
// Usage:
//
//	prodigy-serve [-addr :8091] [-cache-dir DIR] [-quick] [-cores N]
//	              [-datasets po,lj] [-j N] [-run-timeout D] [-drain D]
//	              [-pprof] [-access-log=false]
//
// POST a sweep spec ({"algos":["bfs"],"schemes":["none","prodigy"]}) to
// /sweeps and the response streams one RunSummary JSON line per cell:
// cells already in the cache replay instantly (in grid order), the rest
// simulate on the harness's bounded worker pool and stream in completion
// order. Disconnecting the POST mid-sweep (or DELETE /sweeps/{id})
// cancels the in-flight cells with a typed "canceled" abort; completed
// cells stay cached, so re-POSTing the same spec resumes where the sweep
// left off — including across server restarts, since the cache is keyed
// by a canonical hash of the full machine configuration and persisted
// under -cache-dir. GET /diff compares two finished sweeps with the
// prodigy-stat diff reducer. See docs/SERVING.md for the full API.
//
// The service observes itself (internal/telemetry): GET /metrics serves
// the Prometheus text exposition of the farm, store, stream, and HTTP
// metrics; GET /varz the JSON snapshot of the same registry; every
// request is stamped with an X-Request-Id and logged as one structured
// JSON line (-access-log=false silences it); -pprof opts into
// /debug/pprof. GET /sweeps/{id} reports live progress (in-flight and
// queued cells, elapsed, ETA). docs/SERVING.md catalogs the metrics.
//
// On SIGINT/SIGTERM the server stops accepting sweeps and drains running
// simulations for up to -drain before interrupting them with a typed
// "shutdown" abort (those cells re-run on the next submission). While
// draining, GET /healthz reports 503 "draining" so load balancers stop
// routing to the instance.
//
// Every finished sweep is recorded in <cache-dir>/sweeps.jsonl. The
// server keeps the last few hundred finished sweeps in memory and serves
// older ones — and those of earlier server processes, whose IDs it
// continues — from that journal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"prodigy/internal/exp"
	"prodigy/internal/exp/farm"
)

func main() {
	os.Exit(run(os.Stderr, os.Args[1:]))
}

// run is the whole command; it returns the exit code. Once the farm is
// open, every path closes it, and a failed close makes the exit code
// non-zero.
func run(stderr io.Writer, args []string) (code int) {
	fs := flag.NewFlagSet("prodigy-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8091", "listen address")
	cacheDir := fs.String("cache-dir", "prodigy-cache", "durable result cache directory")
	quick := fs.Bool("quick", false, "tiny datasets / fewer cores (smoke scale)")
	cores := fs.Int("cores", 0, "override core count (default 8, 2 in quick mode)")
	datasets := fs.String("datasets", "", "comma-separated default dataset subset")
	workers := fs.Int("j", 0, "concurrent simulations per sweep (0 = GOMAXPROCS)")
	timeout := fs.Duration("run-timeout", 0, "wall-clock budget per simulation (0 = no limit)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown budget before in-flight simulations are interrupted")
	pprofOn := fs.Bool("pprof", false, "expose /debug/pprof runtime profiles")
	accessLog := fs.Bool("access-log", true, "emit one structured JSON access-log line per request on stderr")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cfg := exp.Default()
	if *quick {
		cfg = exp.Quick()
	}
	if *cores > 0 {
		cfg.Cores = *cores
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	cfg.Parallelism = *workers
	cfg.RunTimeout = *timeout

	var logger *slog.Logger
	if *accessLog {
		logger = slog.New(slog.NewJSONHandler(stderr, nil))
	}
	srv, f, err := newServer(*cacheDir, cfg, logger, *pprofOn)
	if err != nil {
		fmt.Fprintln(stderr, "prodigy-serve:", err)
		return 1
	}
	defer func() {
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "prodigy-serve: closing cache:", err)
			code = 1
		}
	}()
	cells, skippedResults, skippedSweeps := f.Loaded()
	if skippedResults > 0 {
		fmt.Fprintf(stderr, "prodigy-serve: skipped %d unparsable cache lines in %s\n",
			skippedResults, farm.StorePath(*cacheDir))
	}
	if skippedSweeps > 0 {
		fmt.Fprintf(stderr, "prodigy-serve: skipped %d unparsable sweep journal lines in %s\n",
			skippedSweeps, farm.JournalPath(*cacheDir))
	}

	srv.Addr = *addr
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(stderr, "prodigy-serve: listening on %s (cache %s, %d cached cells)\n",
		*addr, *cacheDir, cells)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "prodigy-serve:", err)
		code = 1
	case sig := <-sigc:
		fmt.Fprintf(stderr, "prodigy-serve: %v: draining (budget %v)\n", sig, *drain)
	}

	// Drain: stop accepting sweeps, let running simulations finish inside
	// the budget, then interrupt the stragglers with a "shutdown" abort.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	if err := f.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "prodigy-serve: drain deadline hit; in-flight cells aborted")
	}
	cancel()
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv.Shutdown(httpCtx); err != nil {
		fmt.Fprintln(stderr, "prodigy-serve: http shutdown:", err)
	}
	httpCancel()
	return code
}
