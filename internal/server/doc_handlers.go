package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"time"

	"jsonski"
	"jsonski/internal/telemetry"
)

// handleDoc serves GET/POST /doc?get=<dot.path>: one on-demand lookup
// into the request body via the lazy Document API. Unlike /query this
// compiles nothing — the dot path is walked hop by hop with the same
// fast-forward movements a compiled query would use, and only the bytes
// on the path to the requested value are touched. The body is resolved
// through the same two index tiers as single-document /query requests
// (persistent catalog, then in-memory index cache), so a repeat lookup
// into a hot document navigates over prebuilt word masks.
func (s *Server) handleDoc(w http.ResponseWriter, r *http.Request) {
	s.m.counts[docRequests].Add(1)
	path := r.URL.Query().Get("get")
	if path == "" {
		s.jsonError(w, http.StatusBadRequest, errors.New("missing ?get= query parameter"))
		return
	}
	segs, err := jsonski.ParseDotPath(path)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}

	s.m.counts[inFlight].Add(1)
	defer s.m.counts[inFlight].Add(-1)
	var body io.Reader = r.Body
	if s.cfg.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	body = &countingReader{r: body, n: &s.m.counts[bytesIn]}
	data, err := io.ReadAll(body)
	if err != nil {
		s.requestError(w, err)
		return
	}
	data = bytes.TrimSpace(data)
	if len(data) == 0 {
		s.jsonError(w, http.StatusBadRequest, errors.New("empty body"))
		return
	}

	rsp := telemetry.SpanFromContext(r.Context())
	ix := s.lookupIndex(rsp, data)
	if ix != nil {
		defer ix.Release()
	}
	sp := rsp.StartChild("engine.run")
	sp.SetBool("jsonski.indexed", ix != nil)
	var doc *jsonski.Document
	if ix != nil {
		doc = jsonski.OpenIndexed(ix)
	} else {
		doc = jsonski.Open(data)
	}
	if sp.Recording() {
		// Sampled: record the bounded movement log so the span carries
		// the hop-by-hop fast-forward events, as /query spans do.
		doc.Explain(spanTraceEvents)
	}
	t0 := time.Now()
	raw, err := doc.Lookup(segs...).Raw()
	if cerr := doc.Close(); err == nil {
		err = cerr
	}
	st := doc.Stats()
	s.finishRecord(sp, 0, t0, st, err)
	if err != nil {
		s.m.counts[recordErrors].Add(1)
		status := http.StatusBadRequest
		if errors.Is(err, jsonski.ErrNotFound) {
			status = http.StatusNotFound
		}
		s.jsonError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.write(w, raw)
	s.write(w, []byte("\n"))
}
