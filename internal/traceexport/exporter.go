// Package traceexport ships the spans a telemetry.Tracer collects to an
// OTLP/HTTP collector, a local NDJSON file, or both. It is apart from
// internal/telemetry because it needs net/http: the library records
// spans through telemetry, and the jsonski CLI, which never exports
// them, should not link an HTTP client. Only jsonskid imports this
// package.
package traceexport

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"

	"jsonski/internal/telemetry"
)

// Config tunes an Exporter. At least one of Endpoint and FilePath must
// be set.
type Config struct {
	// Endpoint is the OTLP/HTTP collector URL. A URL without a path
	// (or with path "/") gets the standard /v1/traces appended, so
	// `-trace-endpoint http://collector:4318` does the expected thing.
	Endpoint string
	// FilePath, when non-empty, appends every exported span as one
	// OTLP-shaped JSON object per line (NDJSON) to this file.
	FilePath string
	// Service names this process in the OTLP resource (service.name).
	// Empty means "jsonskid".
	Service string
	// Interval is the drain cadence. 0 means 1s.
	Interval time.Duration
	// BatchSize caps spans per POST. 0 means 256.
	BatchSize int
	// Timeout bounds each POST, so a stalled collector delays the
	// exporter by at most one timeout per batch — and delays the
	// request path not at all (the ring drops). 0 means 5s.
	Timeout time.Duration
	// Client overrides the HTTP client (tests). nil uses a private
	// client with the configured timeout.
	Client *http.Client
}

// Exporter drains the tracer's ring from one background goroutine and
// writes each batch to the configured sinks: an OTLP/JSON HTTP POST, a
// local NDJSON file, or both. Failures are counted on the tracer (and
// surfaced in /metrics), never propagated to request goroutines.
type Exporter struct {
	t      *telemetry.Tracer
	cfg    Config
	client *http.Client
	file   *os.File
	fw     *bufio.Writer
	stop   chan struct{}
	done   chan struct{}
}

// New validates the config, opens the file sink (append mode), and
// starts the drain goroutine. Close releases both.
func New(t *telemetry.Tracer, cfg Config) (*Exporter, error) {
	if cfg.Endpoint == "" && cfg.FilePath == "" {
		return nil, fmt.Errorf("telemetry: exporter needs an endpoint or a file path")
	}
	if cfg.Endpoint != "" {
		u, err := url.Parse(cfg.Endpoint)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("telemetry: bad trace endpoint %q", cfg.Endpoint)
		}
		if u.Path == "" || u.Path == "/" {
			u.Path = "/v1/traces"
		}
		cfg.Endpoint = u.String()
	}
	if cfg.Service == "" {
		cfg.Service = "jsonskid"
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	e := &Exporter{
		t:      t,
		cfg:    cfg,
		client: cfg.Client,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if e.client == nil {
		e.client = &http.Client{Timeout: cfg.Timeout}
	}
	if cfg.FilePath != "" {
		f, err := os.OpenFile(cfg.FilePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("telemetry: trace file: %w", err)
		}
		e.file = f
		e.fw = bufio.NewWriterSize(f, 64<<10)
	}
	go e.run()
	return e, nil
}

// Close drains what is already in the ring, stops the goroutine, and
// closes the file sink. Each final POST is still bounded by the
// configured timeout, so Close cannot hang on a dead collector.
func (e *Exporter) Close() error {
	close(e.stop)
	<-e.done
	var err error
	if e.fw != nil {
		err = e.fw.Flush()
	}
	if e.file != nil {
		if cerr := e.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (e *Exporter) run() {
	defer close(e.done)
	tick := time.NewTicker(e.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			e.t.Drain(e.cfg.BatchSize, e.export)
		case <-e.stop:
			e.t.Drain(e.cfg.BatchSize, e.export)
			return
		}
	}
}

// export writes one batch to every configured sink and returns how
// many of the sinks failed.
func (e *Exporter) export(batch []*telemetry.Span) (failed int) {
	if e.fw != nil {
		for _, sp := range batch {
			if _, err := e.fw.Write(append(telemetry.EncodeSpanLine(sp), '\n')); err != nil {
				failed++
				break
			}
		}
		if err := e.fw.Flush(); err != nil {
			failed++
		}
	}
	if e.cfg.Endpoint != "" {
		if err := e.post(telemetry.EncodeOTLP(batch, e.cfg.Service)); err != nil {
			failed++
		}
	}
	return failed
}

// post sends one OTLP/JSON body, bounded by the configured timeout.
func (e *Exporter) post(body []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), e.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.cfg.Endpoint, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	_ = resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("telemetry: collector returned %s", resp.Status)
	}
	return nil
}
