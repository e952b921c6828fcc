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
//
// -smoke runs the self-contained CI smoke: boot a server on a loopback
// port with a temporary cache, POST a quick sweep, assert the streamed
// NDJSON, restart the server on the same cache, and assert the re-POSTed
// sweep replays every cell byte-identically without simulating, gets a
// fresh ID, and that the first server's sweep is still served
// byte-identically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"prodigy/internal/exp"
	"prodigy/internal/exp/farm"
	"prodigy/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8091", "listen address")
	cacheDir := flag.String("cache-dir", "prodigy-cache", "durable result cache directory")
	quick := flag.Bool("quick", false, "tiny datasets / fewer cores (smoke scale)")
	cores := flag.Int("cores", 0, "override core count (default 8, 2 in quick mode)")
	datasets := flag.String("datasets", "", "comma-separated default dataset subset")
	workers := flag.Int("j", 0, "concurrent simulations per sweep (0 = GOMAXPROCS)")
	timeout := flag.Duration("run-timeout", 0, "wall-clock budget per simulation (0 = no limit)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget before in-flight simulations are interrupted")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof runtime profiles")
	accessLog := flag.Bool("access-log", true, "emit one structured JSON access-log line per request on stderr")
	smoke := flag.Bool("smoke", false, "run the self-contained smoke test and exit")
	flag.Parse()

	if *smoke {
		os.Exit(runSmoke(os.Stdout, os.Stderr))
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

	store, err := farm.OpenStore(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prodigy-serve:", err)
		os.Exit(1)
	}
	if store.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "prodigy-serve: skipped %d unparsable cache lines in %s\n",
			store.Skipped, farm.StorePath(*cacheDir))
	}
	reg := telemetry.NewRegistry()
	f, err := farm.New(farm.Config{Exp: cfg, Store: store, LogDir: *cacheDir, Metrics: reg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "prodigy-serve:", err)
		os.Exit(1)
	}
	if n := f.JournalSkipped(); n > 0 {
		fmt.Fprintf(os.Stderr, "prodigy-serve: skipped %d unparsable sweep journal lines in %s\n",
			n, farm.JournalPath(*cacheDir))
	}

	var logger *slog.Logger
	if *accessLog {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	srv := &http.Server{Addr: *addr, Handler: newHandler(f, serverOpts{
		reg:       reg,
		accessLog: logger,
		pprof:     *pprofOn,
	})}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "prodigy-serve: listening on %s (cache %s, %d cached cells)\n",
		*addr, *cacheDir, store.Len())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "prodigy-serve:", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "prodigy-serve: %v: draining (budget %v)\n", sig, *drain)
	}

	// Drain: stop accepting sweeps, let running simulations finish inside
	// the budget, then interrupt the stragglers with a "shutdown" abort.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	if err := f.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "prodigy-serve: drain deadline hit; in-flight cells aborted")
	}
	cancel()
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv.Shutdown(httpCtx); err != nil {
		fmt.Fprintln(os.Stderr, "prodigy-serve: http shutdown:", err)
	}
	httpCancel()
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "prodigy-serve: closing sweep journal:", err)
	}
	if err := store.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "prodigy-serve: closing cache:", err)
	}
}

// instance is one loopback server generation for tests and smoke mode.
type instance struct {
	url  string
	farm *farm.Farm
	reg  *telemetry.Registry
	stop func() error
}

// serveOnLoopback boots a server instance for tests and the smoke mode:
// a fresh farm (with its own telemetry registry) over the given cache
// dir on an ephemeral loopback port, access logs discarded. The stop
// function drains the farm and closes everything.
func serveOnLoopback(cacheDir string, cfg exp.Config) (*instance, error) {
	store, err := farm.OpenStore(cacheDir)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	f, err := farm.New(farm.Config{Exp: cfg, Store: store, LogDir: cacheDir, Metrics: reg})
	if err != nil {
		return nil, errors.Join(err, store.Close())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, f.Close(), store.Close())
	}
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	srv := &http.Server{Handler: newHandler(f, serverOpts{reg: reg, accessLog: logger})}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ferr := f.Shutdown(ctx)
		serr := srv.Shutdown(ctx)
		<-done // Serve returned (ErrServerClosed)
		cerr := errors.Join(f.Close(), store.Close())
		if ferr != nil {
			return ferr
		}
		return errors.Join(serr, cerr)
	}
	return &instance{url: "http://" + ln.Addr().String(), farm: f, reg: reg, stop: stop}, nil
}
