package server

import (
	"errors"
	"net/http"

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
		s.reject(w, r, http.StatusBadRequest, errors.New("missing ?get= query parameter"))
		return
	}
	segs, err := jsonski.ParseDotPath(path)
	if err != nil {
		s.reject(w, r, http.StatusBadRequest, err)
		return
	}

	s.m.counts[inFlight].Add(1)
	defer s.m.counts[inFlight].Add(-1)
	bb, data := s.readDocument(w, r)
	if bb == nil {
		return
	}
	// Deferred first, so it runs after the index's Release: the buffer
	// goes back once nothing reads data.
	defer putBodyBuf(bb)

	rsp := telemetry.SpanFromContext(r.Context())
	ix := s.lookupIndex(rsp, data)
	if ix != nil {
		defer ix.Release()
	}
	out := getLineBuf()
	defer putLineBuf(out)
	_, err = s.runRecord(rsp, 0, func(sp *telemetry.Span) (jsonski.Stats, error) {
		sp.SetBool("jsonski.indexed", ix != nil)
		var doc *jsonski.Document
		if ix != nil {
			doc = jsonski.OpenIndexed(ix)
		} else {
			doc = jsonski.Open(data)
		}
		if sp.Recording() {
			// Sampled: record the bounded movement log so the span
			// carries the hop-by-hop fast-forward events, as /query
			// spans do.
			doc.Explain(spanTraceEvents)
		}
		raw, err := doc.Lookup(segs...).Raw()
		if cerr := doc.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			// raw aliases the body and may not leave this closure: copy
			// it, so the client's write stays out of engine time.
			out.Write(raw)
			out.WriteByte('\n')
		}
		return doc.Stats(), err
	})
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
	s.write(w, out.Bytes())
}
