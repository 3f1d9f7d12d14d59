package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"jsonski"
	"jsonski/internal/fastforward"
	"jsonski/internal/telemetry"
)

// metrics holds the server's live counters, expvar-style: individually
// atomic monotonic counters (plus one in-flight gauge) and lock-free
// latency histograms, readable at any time without locks. Engine
// counters are fed from jsonski.Stats as each record finishes, so
// /metrics reflects requests still in progress.
type metrics struct {
	queryRequests  atomic.Int64
	multiRequests  atomic.Int64
	requestErrors  atomic.Int64
	inFlight       atomic.Int64
	bytesIn        atomic.Int64
	bytesOut       atomic.Int64
	records        atomic.Int64
	matches        atomic.Int64
	engineInBytes  atomic.Int64
	scannedBytes   atomic.Int64
	skipped        [fastforward.NumGroups]atomic.Int64
	recordErrors   atomic.Int64
	cancelledReads atomic.Int64
	docRequests    atomic.Int64

	// queryLatency, multiLatency, and docLatency time whole requests per
	// endpoint (observed in ServeHTTP); recordLatency times individual
	// record evaluations across the endpoints (observed in the eval
	// closures and the /doc lookup).
	queryLatency  telemetry.Histogram
	multiLatency  telemetry.Histogram
	recordLatency telemetry.Histogram
	docLatency    telemetry.Histogram
}

// addStats folds one record evaluation into the engine counters. Write
// order matters for snapshot consistency: input and scanned bytes are
// published before the skipped-byte groups, so a snapshot that reads
// the groups first (see snapshot) can pair each group with denominator
// totals at least as new — derived skip ratios can undershoot briefly
// but never exceed reality.
func (m *metrics) addStats(st jsonski.Stats) {
	m.records.Add(1)
	m.matches.Add(st.Matches)
	m.engineInBytes.Add(st.InputBytes)
	m.scannedBytes.Add(st.ScannedBytes())
	for g, v := range st.SkippedBytes {
		if v != 0 {
			m.skipped[g].Add(v)
		}
	}
}

// latencyJSON is one histogram rendered for the JSON snapshot.
type latencyJSON struct {
	Count  int64 `json:"count"`
	SumNs  int64 `json:"sum_ns"`
	MaxNs  int64 `json:"max_ns"`
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P90Ns  int64 `json:"p90_ns"`
	P99Ns  int64 `json:"p99_ns"`
}

func latencyFrom(s telemetry.HistSnapshot) latencyJSON {
	return latencyJSON{
		Count:  s.Count,
		SumNs:  s.SumNanos,
		MaxNs:  s.MaxNanos,
		MeanNs: int64(s.Mean()),
		P50Ns:  int64(s.Quantile(0.50)),
		P90Ns:  int64(s.Quantile(0.90)),
		P99Ns:  int64(s.Quantile(0.99)),
	}
}

// metricsSnapshot is the JSON document served at GET /metrics. New
// sections are appended at the end so the established field order stays
// byte-compatible for existing consumers.
type metricsSnapshot struct {
	Requests struct {
		Query    int64 `json:"query"`
		Multi    int64 `json:"multi"`
		Errors   int64 `json:"errors"`
		InFlight int64 `json:"in_flight"`
		// Doc sits last so the established field order stays
		// byte-compatible for existing consumers.
		Doc int64 `json:"doc"`
	} `json:"requests"`
	IO struct {
		BytesIn  int64 `json:"bytes_in"`
		BytesOut int64 `json:"bytes_out"`
		// CancelledReads sits last so the established field order stays
		// byte-compatible for existing consumers.
		CancelledReads int64 `json:"cancelled_reads"`
	} `json:"io"`
	Engine struct {
		Records          int64     `json:"records"`
		RecordErrors     int64     `json:"record_errors"`
		Matches          int64     `json:"matches"`
		InputBytes       int64     `json:"input_bytes"`
		SkippedBytes     [5]int64  `json:"skipped_bytes"`
		FastForwardRatio float64   `json:"fast_forward_ratio"`
		GroupRatios      []float64 `json:"group_ratios"`
		// ScannedBytes and SkipRatio sit last in this section per the
		// append-only field-order rule. ScannedBytes is the complement of
		// the skipped groups (bytes the engines actually examined);
		// SkipRatio = skipped / (skipped + scanned), the paper's Table 6
		// accounting over the two directly-published counters.
		ScannedBytes int64   `json:"scanned_bytes"`
		SkipRatio    float64 `json:"skip_ratio"`
	} `json:"engine"`
	Cache struct {
		Hits      int64   `json:"hits"`
		Misses    int64   `json:"misses"`
		Evictions int64   `json:"evictions"`
		Size      int     `json:"size"`
		Cap       int     `json:"cap"`
		HitRate   float64 `json:"hit_rate"`
	} `json:"cache"`
	IndexCache struct {
		Enabled      bool    `json:"enabled"`
		Hits         int64   `json:"hits"`
		Misses       int64   `json:"misses"`
		Evictions    int64   `json:"evictions"`
		Entries      int     `json:"entries"`
		Bytes        int64   `json:"bytes"`
		CapBytes     int64   `json:"cap_bytes"`
		BytesIndexed int64   `json:"bytes_indexed"`
		HitRate      float64 `json:"hit_rate"`
	} `json:"index_cache"`
	Workers struct {
		Count         int `json:"count"`
		QueueDepth    int `json:"queue_depth"`
		QueueCapacity int `json:"queue_capacity"`
	} `json:"workers"`
	Latency struct {
		Query  latencyJSON `json:"query"`
		Multi  latencyJSON `json:"multi"`
		Record latencyJSON `json:"record"`
		// Doc sits last per the append-only field-order rule.
		Doc latencyJSON `json:"doc"`
	} `json:"latency"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Build         struct {
		GoVersion string `json:"go_version"`
		Revision  string `json:"revision,omitempty"`
		Modified  bool   `json:"modified,omitempty"`
		// Version sits last in this section per the append-only rule: the
		// human-readable one-liner the -version flags print, so a metrics
		// scrape identifies the running build without shell access.
		Version string `json:"version"`
	} `json:"build"`
	// Catalog reports the persistent index catalog (-index-dir).
	Catalog catalogJSON `json:"catalog"`
	// Trace reports the distributed-tracing pipeline (-trace-endpoint /
	// -trace-file): span volume by sampling outcome and exporter health.
	// Counters come from the tracer's own atomics via Tracer.Stats, not
	// the server metrics struct. It sits last per this struct's
	// append-only field-order rule.
	Trace struct {
		Enabled       bool  `json:"enabled"`
		SpansStarted  int64 `json:"spans_started"`
		SpansSampled  int64 `json:"spans_sampled"`
		SpansForced   int64 `json:"spans_forced"`
		SpansDropped  int64 `json:"spans_dropped"`
		SpansExported int64 `json:"spans_exported"`
		ExportBatches int64 `json:"export_batches"`
		ExportErrors  int64 `json:"export_errors"`
	} `json:"trace"`
}

// catalogJSON is the catalog section of the metrics snapshot and of
// GET /index.
type catalogJSON struct {
	Enabled     bool    `json:"enabled"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	Opens       int64   `json:"opens"`
	Builds      int64   `json:"builds"`
	Evictions   int64   `json:"evictions"`
	Invalidated int64   `json:"invalidated"`
	Entries     int     `json:"entries"`
	Bytes       int64   `json:"bytes"`
	CapBytes    int64   `json:"cap_bytes"`
	Mmap        bool    `json:"mmap"`
	HitRate     float64 `json:"hit_rate"`
}

func catalogFrom(st jsonski.CatalogStats, enabled bool) catalogJSON {
	out := catalogJSON{
		Enabled:     enabled,
		Hits:        st.Hits,
		Misses:      st.Misses,
		Opens:       st.Opens,
		Builds:      st.Builds,
		Evictions:   st.Evictions,
		Invalidated: st.Invalidated,
		Entries:     st.Entries,
		Bytes:       st.Bytes,
		CapBytes:    st.CapBytes,
		Mmap:        st.Mapped,
	}
	if total := st.Hits + st.Misses; total > 0 {
		out.HitRate = float64(st.Hits) / float64(total)
	}
	return out
}

// promSnapshot bundles everything the exposition surfaces derive their
// samples from: the shared JSON snapshot plus the raw histogram
// snapshots it was rendered from. Both metrics handlers read the live
// atomics exactly once, through this struct, so the two surfaces can
// never disagree with themselves within one scrape.
type promSnapshot struct {
	metricsSnapshot
	queryLatency  telemetry.HistSnapshot
	multiLatency  telemetry.HistSnapshot
	recordLatency telemetry.HistSnapshot
	docLatency    telemetry.HistSnapshot
}

// snapshot is the single reader of the live metric atomics. Load order
// pairs with addStats's write order: the per-group skipped counters are
// read before matches, records, and (last) the engine input-byte total,
// so every derived ratio divides a possibly-stale numerator by an
// at-least-as-fresh denominator — a scrape racing a record can read a
// ratio that is momentarily low, never one above the true value.
func (s *Server) snapshot() promSnapshot {
	var out promSnapshot
	for g := range s.m.skipped {
		out.Engine.SkippedBytes[g] = s.m.skipped[g].Load()
	}
	// scannedBytes is read after the groups (it is written before them),
	// so the derived skip ratio's denominator is at least as fresh as its
	// numerator.
	out.Engine.ScannedBytes = s.m.scannedBytes.Load()
	out.Engine.RecordErrors = s.m.recordErrors.Load()
	out.Engine.Matches = s.m.matches.Load()
	out.Engine.Records = s.m.records.Load()
	out.Engine.InputBytes = s.m.engineInBytes.Load()

	var st jsonski.Stats
	st.Matches = out.Engine.Matches
	st.InputBytes = out.Engine.InputBytes
	st.SkippedBytes = out.Engine.SkippedBytes
	out.Engine.FastForwardRatio = st.FastForwardRatio()
	out.Engine.GroupRatios = make([]float64, len(st.SkippedBytes))
	var ffTotal int64
	for g := range st.SkippedBytes {
		out.Engine.GroupRatios[g] = st.GroupRatio(g)
		ffTotal += st.SkippedBytes[g]
	}
	if total := ffTotal + out.Engine.ScannedBytes; total > 0 {
		out.Engine.SkipRatio = float64(ffTotal) / float64(total)
	}

	out.Requests.Query = s.m.queryRequests.Load()
	out.Requests.Multi = s.m.multiRequests.Load()
	out.Requests.Doc = s.m.docRequests.Load()
	out.Requests.Errors = s.m.requestErrors.Load()
	out.Requests.InFlight = s.m.inFlight.Load()
	out.IO.BytesIn = s.m.bytesIn.Load()
	out.IO.BytesOut = s.m.bytesOut.Load()
	out.IO.CancelledReads = s.m.cancelledReads.Load()

	cs := s.cache.Stats()
	out.Cache.Hits = cs.Hits
	out.Cache.Misses = cs.Misses
	out.Cache.Evictions = cs.Evictions
	out.Cache.Size = cs.Size
	out.Cache.Cap = cs.Cap
	out.Cache.HitRate = cs.HitRate()

	if s.icache != nil {
		ics := s.icache.Stats()
		out.IndexCache.Enabled = true
		out.IndexCache.Hits = ics.Hits
		out.IndexCache.Misses = ics.Misses
		out.IndexCache.Evictions = ics.Evictions
		out.IndexCache.Entries = ics.Entries
		out.IndexCache.Bytes = ics.Bytes
		out.IndexCache.CapBytes = ics.CapBytes
		out.IndexCache.BytesIndexed = ics.BytesIndexed
		out.IndexCache.HitRate = ics.HitRate()
	}

	out.Workers.Count = s.pool.workers()
	out.Workers.QueueDepth = s.pool.queueDepth()
	out.Workers.QueueCapacity = s.pool.queueCap()

	out.queryLatency = s.m.queryLatency.Snapshot()
	out.multiLatency = s.m.multiLatency.Snapshot()
	out.recordLatency = s.m.recordLatency.Snapshot()
	out.docLatency = s.m.docLatency.Snapshot()
	out.Latency.Query = latencyFrom(out.queryLatency)
	out.Latency.Multi = latencyFrom(out.multiLatency)
	out.Latency.Record = latencyFrom(out.recordLatency)
	out.Latency.Doc = latencyFrom(out.docLatency)

	if s.catalog != nil {
		out.Catalog = catalogFrom(s.catalog.Stats(), true)
	}

	out.UptimeSeconds = time.Since(s.start).Seconds()
	b := telemetry.BuildInfo()
	out.Build.GoVersion = b.GoVersion
	out.Build.Revision = b.Revision
	out.Build.Modified = b.Modified
	out.Build.Version = b.Version()

	if s.tracer != nil {
		ts := s.tracer.Stats()
		out.Trace.Enabled = true
		out.Trace.SpansStarted = ts.Started
		out.Trace.SpansSampled = ts.Sampled
		out.Trace.SpansForced = ts.Forced
		out.Trace.SpansDropped = ts.DroppedSpans
		out.Trace.SpansExported = ts.ExportedSpans
		out.Trace.ExportBatches = ts.ExportBatches
		out.Trace.ExportErrors = ts.ExportErrors
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(s.snapshot().metricsSnapshot, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.write(w, append(b, '\n'))
}

// handleProm serves GET /metrics/prom: the same counters as the JSON
// snapshot — taken from the same single read of the atomics — in the
// Prometheus text exposition format, plus the latency histograms in
// native histogram form.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	w.Header().Set("Content-Type", telemetry.ContentType)
	p := telemetry.NewPromWriter(w)

	p.Header("jsonski_requests_total", "Requests served, by endpoint.", "counter")
	p.Int("jsonski_requests_total", []telemetry.Label{{Name: "endpoint", Value: "query"}}, snap.Requests.Query)
	p.Int("jsonski_requests_total", []telemetry.Label{{Name: "endpoint", Value: "multi"}}, snap.Requests.Multi)
	p.Int("jsonski_requests_total", []telemetry.Label{{Name: "endpoint", Value: "doc"}}, snap.Requests.Doc)
	p.Header("jsonski_request_errors_total", "Requests or records that produced an error response or error line.", "counter")
	p.Int("jsonski_request_errors_total", nil, snap.Requests.Errors)
	p.Header("jsonski_in_flight_requests", "Evaluation requests currently being served.", "gauge")
	p.Int("jsonski_in_flight_requests", nil, snap.Requests.InFlight)

	p.Header("jsonski_io_bytes_total", "Bytes moved over HTTP, by direction.", "counter")
	p.Int("jsonski_io_bytes_total", []telemetry.Label{{Name: "direction", Value: "in"}}, snap.IO.BytesIn)
	p.Int("jsonski_io_bytes_total", []telemetry.Label{{Name: "direction", Value: "out"}}, snap.IO.BytesOut)

	p.Header("jsonski_records_total", "JSON records evaluated.", "counter")
	p.Int("jsonski_records_total", nil, snap.Engine.Records)
	p.Header("jsonski_record_errors_total", "Records whose evaluation failed.", "counter")
	p.Int("jsonski_record_errors_total", nil, snap.Engine.RecordErrors)
	p.Header("jsonski_matches_total", "Values emitted by the query engines.", "counter")
	p.Int("jsonski_matches_total", nil, snap.Engine.Matches)
	p.Header("jsonski_engine_input_bytes_total", "Bytes handed to the query engines.", "counter")
	p.Int("jsonski_engine_input_bytes_total", nil, snap.Engine.InputBytes)
	p.Header("jsonski_skipped_bytes_total", "Bytes fast-forwarded over, by paper group G1..G5.", "counter")
	for g, v := range snap.Engine.SkippedBytes {
		p.Int("jsonski_skipped_bytes_total",
			[]telemetry.Label{{Name: "group", Value: fastforward.Group(g).String()}}, v)
	}
	p.Header("jsonski_fast_forward_ratio", "Fraction of engine input bytes fast-forwarded over.", "gauge")
	p.Value("jsonski_fast_forward_ratio", nil, snap.Engine.FastForwardRatio)
	// Skip-efficiency cost accounting: the per-group fast-forward charges
	// (same counters as jsonski_skipped_bytes_total, under the "ff" name
	// that pairs with the scanned-byte complement below), the scanned
	// total, and the ratio derived from exactly those two families.
	p.Header("jsonski_ff_bytes_total", "Bytes fast-forwarded over, by Table 1 charge group G1..G5.", "counter")
	for g, v := range snap.Engine.SkippedBytes {
		p.Int("jsonski_ff_bytes_total",
			[]telemetry.Label{{Name: "group", Value: fastforward.Group(g).String()}}, v)
	}
	p.Header("jsonski_scanned_bytes_total", "Bytes the engines examined rather than fast-forwarded over.", "counter")
	p.Int("jsonski_scanned_bytes_total", nil, snap.Engine.ScannedBytes)
	p.Header("jsonski_skip_ratio", "Fast-forwarded fraction of all charged bytes: ff / (ff + scanned).", "gauge")
	p.Value("jsonski_skip_ratio", nil, snap.Engine.SkipRatio)
	p.Header("jsonski_cancelled_reads_total", "Request bodies abandoned because the client went away.", "counter")
	p.Int("jsonski_cancelled_reads_total", nil, snap.IO.CancelledReads)

	p.Header("jsonski_cache_events_total", "Compiled-query cache events.", "counter")
	for _, e := range []struct {
		ev string
		v  int64
	}{{"hit", snap.Cache.Hits}, {"miss", snap.Cache.Misses}, {"eviction", snap.Cache.Evictions}} {
		p.Int("jsonski_cache_events_total", []telemetry.Label{{Name: "event", Value: e.ev}}, e.v)
	}
	p.Header("jsonski_cache_entries", "Compiled queries resident in the LRU cache.", "gauge")
	p.Int("jsonski_cache_entries", nil, int64(snap.Cache.Size))
	p.Header("jsonski_cache_hit_ratio", "Compiled-query cache hit ratio.", "gauge")
	p.Value("jsonski_cache_hit_ratio", nil, snap.Cache.HitRate)

	p.Header("jsonski_index_cache_enabled", "Whether the structural-index cache is enabled.", "gauge")
	p.Int("jsonski_index_cache_enabled", nil, boolGauge(snap.IndexCache.Enabled))
	if snap.IndexCache.Enabled {
		p.Header("jsonski_index_cache_events_total", "Structural-index cache events.", "counter")
		for _, e := range []struct {
			ev string
			v  int64
		}{{"hit", snap.IndexCache.Hits}, {"miss", snap.IndexCache.Misses}, {"eviction", snap.IndexCache.Evictions}} {
			p.Int("jsonski_index_cache_events_total", []telemetry.Label{{Name: "event", Value: e.ev}}, e.v)
		}
		p.Header("jsonski_index_cache_bytes", "Bytes of documents resident in the structural-index cache.", "gauge")
		p.Int("jsonski_index_cache_bytes", nil, snap.IndexCache.Bytes)
		p.Header("jsonski_index_cache_hit_ratio", "Structural-index cache hit ratio.", "gauge")
		p.Value("jsonski_index_cache_hit_ratio", nil, snap.IndexCache.HitRate)
	}

	p.Header("jsonski_catalog_enabled", "Whether the persistent index catalog (-index-dir) is enabled.", "gauge")
	p.Int("jsonski_catalog_enabled", nil, boolGauge(snap.Catalog.Enabled))
	if snap.Catalog.Enabled {
		p.Header("jsonski_catalog_events_total", "Persistent index catalog events.", "counter")
		for _, e := range []struct {
			ev string
			v  int64
		}{
			{"hit", snap.Catalog.Hits}, {"miss", snap.Catalog.Misses},
			{"open", snap.Catalog.Opens}, {"build", snap.Catalog.Builds},
			{"eviction", snap.Catalog.Evictions}, {"invalidated", snap.Catalog.Invalidated},
		} {
			p.Int("jsonski_catalog_events_total", []telemetry.Label{{Name: "event", Value: e.ev}}, e.v)
		}
		p.Header("jsonski_catalog_entries", "Serialized index sidecars resident in the catalog.", "gauge")
		p.Int("jsonski_catalog_entries", nil, int64(snap.Catalog.Entries))
		p.Header("jsonski_catalog_bytes", "On-disk bytes of cataloged sidecars.", "gauge")
		p.Int("jsonski_catalog_bytes", nil, snap.Catalog.Bytes)
		p.Header("jsonski_catalog_hit_ratio", "Catalog hit ratio on single-document queries.", "gauge")
		p.Value("jsonski_catalog_hit_ratio", nil, snap.Catalog.HitRate)
	}

	p.Header("jsonski_workers", "Evaluation worker goroutines.", "gauge")
	p.Int("jsonski_workers", nil, int64(snap.Workers.Count))
	p.Header("jsonski_worker_queue_depth", "Accepted-but-unstarted evaluation tasks (batches of NDJSON records).", "gauge")
	p.Int("jsonski_worker_queue_depth", nil, int64(snap.Workers.QueueDepth))
	p.Header("jsonski_worker_queue_capacity", "Worker queue capacity.", "gauge")
	p.Int("jsonski_worker_queue_capacity", nil, int64(snap.Workers.QueueCapacity))

	p.Header("jsonski_request_duration_seconds", "Whole-request latency, by endpoint.", "histogram")
	p.Histogram("jsonski_request_duration_seconds",
		[]telemetry.Label{{Name: "endpoint", Value: "query"}}, snap.queryLatency)
	p.Histogram("jsonski_request_duration_seconds",
		[]telemetry.Label{{Name: "endpoint", Value: "multi"}}, snap.multiLatency)
	p.Histogram("jsonski_request_duration_seconds",
		[]telemetry.Label{{Name: "endpoint", Value: "doc"}}, snap.docLatency)
	p.Header("jsonski_record_duration_seconds", "Single-record evaluation latency.", "histogram")
	p.Histogram("jsonski_record_duration_seconds", nil, snap.recordLatency)

	p.Header("jsonski_trace_enabled", "Whether distributed tracing is enabled.", "gauge")
	p.Int("jsonski_trace_enabled", nil, boolGauge(snap.Trace.Enabled))
	if snap.Trace.Enabled {
		p.Header("jsonski_trace_spans_total", "Trace spans, by pipeline outcome.", "counter")
		for _, e := range []struct {
			ev string
			v  int64
		}{
			{"started", snap.Trace.SpansStarted}, {"sampled", snap.Trace.SpansSampled},
			{"forced", snap.Trace.SpansForced}, {"dropped", snap.Trace.SpansDropped},
			{"exported", snap.Trace.SpansExported},
		} {
			p.Int("jsonski_trace_spans_total", []telemetry.Label{{Name: "outcome", Value: e.ev}}, e.v)
		}
		p.Header("jsonski_trace_export_batches_total", "Span batches handed to the trace sinks.", "counter")
		p.Int("jsonski_trace_export_batches_total", nil, snap.Trace.ExportBatches)
		p.Header("jsonski_trace_export_errors_total", "Trace sink writes that failed (POST or file).", "counter")
		p.Int("jsonski_trace_export_errors_total", nil, snap.Trace.ExportErrors)
	}

	p.Header("jsonski_uptime_seconds", "Seconds since the server started.", "gauge")
	p.Value("jsonski_uptime_seconds", nil, snap.UptimeSeconds)
	b := telemetry.BuildInfo()
	p.Header("jsonski_build_info", "Build metadata; the value is always 1.", "gauge")
	p.Int("jsonski_build_info", []telemetry.Label{
		{Name: "go_version", Value: b.GoVersion},
		{Name: "revision", Value: b.Revision},
		{Name: "modified", Value: strconv.FormatBool(b.Modified)},
		{Name: "version", Value: b.Version()},
	}, 1)

	_ = p.Flush()
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.write(w, []byte("ok\n"))
}

// handleReadyz serves the readiness probe: 200 while the server is
// accepting work, 503 once BeginShutdown has been called or while the
// worker queue is fully saturated (submitting would block), so load
// balancers drain and route around an overloaded instance.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.down.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		s.write(w, []byte("shutting down\n"))
		return
	}
	if s.pool.queueDepth() >= s.pool.queueCap() {
		w.WriteHeader(http.StatusServiceUnavailable)
		s.write(w, []byte("worker queue saturated\n"))
		return
	}
	s.write(w, []byte("ok\n"))
}
