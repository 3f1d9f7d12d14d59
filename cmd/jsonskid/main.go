// Command jsonskid is the jsonski query daemon: a long-lived HTTP
// server that streams JSONPath matches out of JSON and NDJSON request
// bodies, amortizing query compilation across requests with an LRU
// cache and fanning NDJSON records out over a bounded worker pool.
//
// Usage:
//
//	jsonskid -addr :8490
//	jsonskid -addr :8490 -trace-endpoint http://localhost:4318 -trace-sample 0.1
//
//	curl -sN 'localhost:8490/query?path=$.user.name' --data-binary @records.ndjson
//	curl -sN 'localhost:8490/query?path=$.user.name&explain=1' --data-binary @records.ndjson
//	curl -sN 'localhost:8490/multi?path=$.a&path=$.b' --data-binary @records.ndjson
//	curl -s  'localhost:8490/metrics'
//	curl -s  'localhost:8490/metrics/prom'
//
// Matches stream back as NDJSON lines {"record":n,"value":...} (plus a
// "query" index on /multi), flushed record by record. SIGINT/SIGTERM
// trigger a graceful shutdown: /readyz flips to 503, in-flight requests
// drain, then the worker pool stops.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"jsonski/internal/server"
	"jsonski/internal/telemetry"
	"jsonski/internal/traceexport"
)

func main() {
	var (
		addr        = flag.String("addr", ":8490", "listen address")
		workers     = flag.Int("workers", 0, "evaluation worker goroutines (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "bounded queue depth, in batches of records (0 = 4x workers)")
		cache       = flag.Int("cache", 0, "compiled-query cache capacity (0 = default)")
		maxBody     = flag.Int64("max-body", 0, "request body byte cap (0 = 1 GiB, negative = unlimited)")
		ixCache     = flag.Int64("index-cache", 0, "structural-index cache byte budget (0 = 64 MiB, negative = disabled)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")
		slowQuery   = flag.Duration("slow-query", 0, "log queries slower than this at WARN and always export their trace (0 = disabled)")
		pprofFlag   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logLevel    = flag.String("log-level", "info", "structured log level: debug, info, warn, error, off")
		traceOut    = flag.String("trace-endpoint", "", "OTLP/JSON collector base URL for trace export, e.g. http://localhost:4318 (empty = no HTTP sink)")
		traceFile   = flag.String("trace-file", "", "NDJSON file sink for exported spans, one span object per line (empty = no file sink)")
		traceSample = flag.Float64("trace-sample", 1.0, "head-based trace sampling ratio in [0,1]; -slow-query requests export regardless")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("jsonskid", telemetry.BuildInfo().Version())
		return
	}
	logger, err := newLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jsonskid:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jsonskid:", err)
		os.Exit(1)
	}
	cfg := server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheSize:       *cache,
		MaxBodyBytes:    *maxBody,
		IndexCacheBytes: *ixCache,
		Logger:          logger,
		SlowQuery:       *slowQuery,
		Pprof:           *pprofFlag,
	}
	// Tracing turns on only when a sink exists: a tracer without an
	// exporter would fill its ring and count drops for nothing.
	var exporter *traceexport.Exporter
	if *traceOut != "" || *traceFile != "" {
		tracer := telemetry.NewTracer(telemetry.TracerConfig{
			SampleRatio: *traceSample,
			// The slow-query override needs unsampled requests' spans
			// collected so they can be exported after the fact.
			ForceCollect: *slowQuery > 0,
		})
		exporter, err = traceexport.New(tracer, traceexport.Config{
			Endpoint: *traceOut,
			FilePath: *traceFile,
			Service:  "jsonskid",
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "jsonskid:", err)
			os.Exit(1)
		}
		cfg.Tracer = tracer
	}
	if logger != nil {
		b := telemetry.BuildInfo()
		logger.Info("starting",
			"addr", ln.Addr().String(),
			"go_version", b.GoVersion,
			"revision", b.Revision,
			"pprof", *pprofFlag,
			"slow_query", *slowQuery,
			"trace_endpoint", *traceOut,
			"trace_file", *traceFile,
			"trace_sample", *traceSample,
		)
	} else {
		fmt.Fprintf(os.Stderr, "jsonskid: listening on %s\n", ln.Addr())
	}
	if err := serve(ctx, ln, cfg, *drain, logger, exporter); err != nil {
		fmt.Fprintln(os.Stderr, "jsonskid:", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon's structured logger, or nil for "off"
// (the server layer skips all log formatting on a nil logger).
func newLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "off":
		return nil, nil
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, error, or off)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// serve runs the daemon on ln until ctx is cancelled, then shuts down
// gracefully: flip /readyz to 503, stop accepting, drain in-flight
// requests (bounded by the drain timeout), stop the shared worker pool,
// and finally close the trace exporter (which performs one last ring
// drain, so spans of the final requests still reach the sinks).
func serve(ctx context.Context, ln net.Listener, cfg server.Config, drain time.Duration, logger *slog.Logger, exporter *traceexport.Exporter) error {
	s := server.New(cfg)
	if exporter != nil {
		defer func() { _ = exporter.Close() }()
	}
	hs := &http.Server{Handler: s}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		s.Close()
		return err
	case <-ctx.Done():
	}
	if logger != nil {
		logger.Info("shutdown begun", "drain", drain)
	}
	s.BeginShutdown()
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := hs.Shutdown(sctx)
	if serr := <-errCh; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.Close()
	if logger != nil {
		logger.Info("shutdown complete", "err", err)
	}
	return err
}
