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

// counter names one of the server's live counters. The constants are
// declared in snapshot's load order: the skipped groups come before the
// scanned and engine input byte totals that addStats writes ahead of
// them, so a ratio read while a record finishes can read low, never
// high.
type counter int

const (
	skippedG1 counter = iota // skippedG1+g counts group g's bytes
	skippedG2
	skippedG3
	skippedG4
	skippedG5
	scannedBytes
	recordErrors
	matches
	records
	engineInBytes
	queryRequests
	multiRequests
	docRequests
	requestErrors
	inFlight // a gauge: requests in progress
	bytesIn
	bytesOut
	cancelledReads
	numCounters
)

// metrics holds the server's live counters, expvar-style: one atomic
// per counter and lock-free latency histograms, readable at any time
// without locks. Engine counters are fed from jsonski.Stats as each
// record finishes, so /metrics reflects requests still in progress.
type metrics struct {
	counts [numCounters]atomic.Int64

	// queryLatency, multiLatency, and docLatency time whole requests per
	// endpoint (observed in ServeHTTP); recordLatency times individual
	// record evaluations across the endpoints (observed in runRecord).
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
	m.counts[records].Add(1)
	m.counts[matches].Add(st.Matches)
	m.counts[engineInBytes].Add(st.InputBytes)
	m.counts[scannedBytes].Add(st.ScannedBytes())
	for g, v := range st.SkippedBytes {
		if v != 0 {
			m.counts[skippedG1+counter(g)].Add(v)
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

// counterFields maps each counter to its /metrics field. snapshot loads
// every counter through it, so a counter without a row is a nil pointer
// on every scrape.
func (out *metricsSnapshot) counterFields() [numCounters]*int64 {
	e := &out.Engine
	return [numCounters]*int64{
		skippedG1:      &e.SkippedBytes[0],
		skippedG2:      &e.SkippedBytes[1],
		skippedG3:      &e.SkippedBytes[2],
		skippedG4:      &e.SkippedBytes[3],
		skippedG5:      &e.SkippedBytes[4],
		scannedBytes:   &e.ScannedBytes,
		recordErrors:   &e.RecordErrors,
		matches:        &e.Matches,
		records:        &e.Records,
		engineInBytes:  &e.InputBytes,
		queryRequests:  &out.Requests.Query,
		multiRequests:  &out.Requests.Multi,
		docRequests:    &out.Requests.Doc,
		requestErrors:  &out.Requests.Errors,
		inFlight:       &out.Requests.InFlight,
		bytesIn:        &out.IO.BytesIn,
		bytesOut:       &out.IO.BytesOut,
		cancelledReads: &out.IO.CancelledReads,
	}
}

// snapshot is the single reader of the live metric atomics. It loads
// them in counter order, which pairs with addStats's write order: every
// derived ratio divides a possibly-stale numerator by an
// at-least-as-fresh denominator — a scrape racing a record can read a
// ratio that is momentarily low, never one above the true value.
func (s *Server) snapshot() promSnapshot {
	var out promSnapshot
	for c, f := range out.counterFields() {
		*f = s.m.counts[c].Load()
	}

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

// promFamily is one /metrics/prom family: its HELP and TYPE lines and
// its samples. Each sample's label value goes under the family's label
// name; a family with one unlabelled sample leaves both empty. A family
// with a when flag renders only while the flag is set.
type promFamily struct {
	name, help, typ, label string
	when                   *bool
	samples                []promValue
}

// promValue is one sample: its label value and a pointer into the
// snapshot, a *int64, *int, *bool, *float64 or *telemetry.HistSnapshot.
type promValue struct {
	label string
	v     any
}

func one(v any) []promValue { return []promValue{{v: v}} }

// families lists every /metrics/prom family but jsonski_build_info, in
// exposition order, with samples pointing into s.
func (s *promSnapshot) families() []promFamily {
	groups := make([]promValue, len(s.Engine.SkippedBytes))
	for g := range groups {
		groups[g] = promValue{fastforward.Group(g).String(), &s.Engine.SkippedBytes[g]}
	}
	ic, tr := &s.IndexCache, &s.Trace
	return []promFamily{
		{"jsonski_requests_total", "Requests served, by endpoint.", "counter", "endpoint", nil,
			[]promValue{{"query", &s.Requests.Query}, {"multi", &s.Requests.Multi}, {"doc", &s.Requests.Doc}}},
		{"jsonski_request_errors_total", "Requests or records that produced an error response or error line.", "counter", "", nil, one(&s.Requests.Errors)},
		{"jsonski_in_flight_requests", "Evaluation requests currently being served.", "gauge", "", nil, one(&s.Requests.InFlight)},
		{"jsonski_io_bytes_total", "Bytes moved over HTTP, by direction.", "counter", "direction", nil,
			[]promValue{{"in", &s.IO.BytesIn}, {"out", &s.IO.BytesOut}}},
		{"jsonski_records_total", "JSON records evaluated.", "counter", "", nil, one(&s.Engine.Records)},
		{"jsonski_record_errors_total", "Records whose evaluation failed.", "counter", "", nil, one(&s.Engine.RecordErrors)},
		{"jsonski_matches_total", "Values emitted by the query engines.", "counter", "", nil, one(&s.Engine.Matches)},
		{"jsonski_engine_input_bytes_total", "Bytes handed to the query engines, counted once per engine pass: a /multi set of several passes counts a record once per pass.", "counter", "", nil, one(&s.Engine.InputBytes)},
		{"jsonski_skipped_bytes_total", "Bytes fast-forwarded over, by paper group G1..G5.", "counter", "group", nil, groups},
		{"jsonski_fast_forward_ratio", "Fraction of engine input bytes fast-forwarded over.", "gauge", "", nil, one(&s.Engine.FastForwardRatio)},
		// Skip-efficiency cost accounting: the per-group fast-forward
		// charges (same counters as jsonski_skipped_bytes_total, under the
		// "ff" name that pairs with the scanned-byte complement), the
		// scanned total, and the ratio derived from exactly those two.
		{"jsonski_ff_bytes_total", "Bytes fast-forwarded over, by Table 1 charge group G1..G5.", "counter", "group", nil, groups},
		{"jsonski_scanned_bytes_total", "Bytes the engines examined rather than fast-forwarded over.", "counter", "", nil, one(&s.Engine.ScannedBytes)},
		{"jsonski_skip_ratio", "Fast-forwarded fraction of all charged bytes: ff / (ff + scanned).", "gauge", "", nil, one(&s.Engine.SkipRatio)},
		{"jsonski_cancelled_reads_total", "Request bodies abandoned because the client went away.", "counter", "", nil, one(&s.IO.CancelledReads)},

		{"jsonski_cache_events_total", "Compiled-query cache events.", "counter", "event", nil,
			[]promValue{{"hit", &s.Cache.Hits}, {"miss", &s.Cache.Misses}, {"eviction", &s.Cache.Evictions}}},
		{"jsonski_cache_entries", "Compiled queries resident in the LRU cache.", "gauge", "", nil, one(&s.Cache.Size)},
		{"jsonski_cache_hit_ratio", "Compiled-query cache hit ratio.", "gauge", "", nil, one(&s.Cache.HitRate)},

		{"jsonski_index_cache_enabled", "Whether the structural-index cache is enabled.", "gauge", "", nil, one(&ic.Enabled)},
		{"jsonski_index_cache_events_total", "Structural-index cache events.", "counter", "event", &ic.Enabled,
			[]promValue{{"hit", &ic.Hits}, {"miss", &ic.Misses}, {"eviction", &ic.Evictions}}},
		{"jsonski_index_cache_bytes", "Bytes of documents resident in the structural-index cache.", "gauge", "", &ic.Enabled, one(&ic.Bytes)},
		{"jsonski_index_cache_hit_ratio", "Structural-index cache hit ratio.", "gauge", "", &ic.Enabled, one(&ic.HitRate)},

		{"jsonski_workers", "Evaluation worker goroutines.", "gauge", "", nil, one(&s.Workers.Count)},
		{"jsonski_worker_queue_depth", "Accepted-but-unstarted evaluation tasks (batches of NDJSON records).", "gauge", "", nil, one(&s.Workers.QueueDepth)},
		{"jsonski_worker_queue_capacity", "Worker queue capacity.", "gauge", "", nil, one(&s.Workers.QueueCapacity)},

		{"jsonski_request_duration_seconds", "Whole-request latency, by endpoint.", "histogram", "endpoint", nil,
			[]promValue{{"query", &s.queryLatency}, {"multi", &s.multiLatency}, {"doc", &s.docLatency}}},
		{"jsonski_record_duration_seconds", "Single-record evaluation latency.", "histogram", "", nil, one(&s.recordLatency)},

		{"jsonski_trace_enabled", "Whether distributed tracing is enabled.", "gauge", "", nil, one(&tr.Enabled)},
		{"jsonski_trace_spans_total", "Trace spans, by pipeline outcome.", "counter", "outcome", &tr.Enabled, []promValue{
			{"started", &tr.SpansStarted}, {"sampled", &tr.SpansSampled}, {"forced", &tr.SpansForced},
			{"dropped", &tr.SpansDropped}, {"exported", &tr.SpansExported}}},
		{"jsonski_trace_export_batches_total", "Span batches handed to the trace sinks.", "counter", "", &tr.Enabled, one(&tr.ExportBatches)},
		{"jsonski_trace_export_errors_total", "Trace sink writes that failed (POST or file).", "counter", "", &tr.Enabled, one(&tr.ExportErrors)},

		{"jsonski_uptime_seconds", "Seconds since the server started.", "gauge", "", nil, one(&s.UptimeSeconds)},
	}
}

// handleProm serves GET /metrics/prom: the same counters as the JSON
// snapshot — taken from the same single read of the atomics — in the
// Prometheus text exposition format, plus the latency histograms in
// native histogram form.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	w.Header().Set("Content-Type", telemetry.ContentType)
	p := telemetry.NewPromWriter(w)
	for _, f := range snap.families() {
		if f.when != nil && !*f.when {
			continue
		}
		p.Header(f.name, f.help, f.typ)
		for _, sv := range f.samples {
			var labels []telemetry.Label
			if f.label != "" {
				labels = []telemetry.Label{{Name: f.label, Value: sv.label}}
			}
			switch v := sv.v.(type) {
			case *int64:
				p.Int(f.name, labels, *v)
			case *int:
				p.Int(f.name, labels, int64(*v))
			case *bool:
				p.Int(f.name, labels, boolGauge(*v))
			case *float64:
				p.Value(f.name, labels, *v)
			case *telemetry.HistSnapshot:
				p.Histogram(f.name, labels, *v)
			}
		}
	}
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
