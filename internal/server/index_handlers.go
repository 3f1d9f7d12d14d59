package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"mime"
	"net/http"
	"strconv"

	"jsonski"
)

// indexEntryJSON is the /index wire form of one cataloged sidecar.
type indexEntryJSON struct {
	jsonski.CatalogEntry
	Created bool `json:"created,omitempty"`
}

// errNoCatalog is returned by the /index endpoints when the daemon was
// started without -index-dir.
var errNoCatalog = errors.New("no index catalog configured (start with -index-dir)")

// requireCatalog rejects /index requests on a catalog-less server.
func (s *Server) requireCatalog(w http.ResponseWriter, r *http.Request) bool {
	if s.catalog == nil {
		s.reject(w, r, http.StatusServiceUnavailable, errNoCatalog)
		return false
	}
	return true
}

// handleIndexPut serves POST /index: build, persist, and map the
// structural index of the request body. A Content-Type of
// application/json marks a single JSON record (whitespace-trimmed, the
// same normalization /query applies, so a later query hits the
// catalog); anything else is treated as an NDJSON corpus and persisted
// with its per-record span table. Responds 201 with the entry info, or
// 200 when the document was already cataloged.
func (s *Server) handleIndexPut(w http.ResponseWriter, r *http.Request) {
	if !s.requireCatalog(w, r) {
		return
	}
	bb := s.readBody(w, r)
	if bb == nil {
		return
	}
	// Put writes and maps a sidecar and keeps nothing of the body.
	defer putBodyBuf(bb)
	data := bb.b
	var spans []jsonski.Span
	if ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); ct == "application/json" {
		data = bytes.TrimSpace(data)
	} else {
		spans = jsonski.RecordSpans(data)
	}
	if len(data) == 0 {
		s.jsonError(w, http.StatusBadRequest, errors.New("empty body"))
		return
	}
	hash := jsonski.ContentHash(data)
	created := !s.catalog.Contains(hash)
	ix, _, err := s.catalog.Put(data, spans)
	if err != nil {
		s.jsonError(w, http.StatusInternalServerError, err)
		return
	}
	ix.Release()
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	s.writeIndexJSON(w, status, indexEntryJSON{
		CatalogEntry: s.entryInfo(hash),
		Created:      created,
	})
}

// entryInfo finds hash's entry in a fresh catalog snapshot. The entry
// can only be missing if it was evicted or deleted between Put and the
// snapshot; the zero value (with the hash filled in) reports that
// honestly.
func (s *Server) entryInfo(hash uint64) jsonski.CatalogEntry {
	key := strconv.FormatUint(hash, 16)
	for len(key) < 16 {
		key = "0" + key
	}
	for _, e := range s.catalog.Entries() {
		if e.Hash == key {
			return e
		}
	}
	return jsonski.CatalogEntry{Hash: key}
}

// handleIndexList serves GET /index: the catalog directory, counters,
// and every entry most-recently-used first.
func (s *Server) handleIndexList(w http.ResponseWriter, r *http.Request) {
	if !s.requireCatalog(w, r) {
		return
	}
	st := s.catalog.Stats()
	out := struct {
		Dir     string                 `json:"dir"`
		Stats   catalogJSON            `json:"stats"`
		Entries []jsonski.CatalogEntry `json:"entries"`
	}{
		Dir:     s.catalog.Dir(),
		Stats:   catalogFrom(st, true),
		Entries: s.catalog.Entries(),
	}
	if out.Entries == nil {
		out.Entries = []jsonski.CatalogEntry{}
	}
	s.writeIndexJSON(w, http.StatusOK, out)
}

// parseIndexHash parses the {hash} path segment (16 hex digits, the
// sidecar basename).
func parseIndexHash(r *http.Request) (uint64, error) {
	h, err := strconv.ParseUint(r.PathValue("hash"), 16, 64)
	if err != nil {
		return 0, errors.New("malformed index hash (want 16 hex digits)")
	}
	return h, nil
}

// handleIndexGet serves GET /index/{hash}.
func (s *Server) handleIndexGet(w http.ResponseWriter, r *http.Request) {
	if !s.requireCatalog(w, r) {
		return
	}
	hash, err := parseIndexHash(r)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	if !s.catalog.Contains(hash) {
		s.jsonError(w, http.StatusNotFound, errors.New("no such index"))
		return
	}
	s.writeIndexJSON(w, http.StatusOK, s.entryInfo(hash))
}

// handleIndexDelete serves DELETE /index/{hash}: drop the entry and
// unlink its sidecar. Readers still streaming over the mapped index are
// unaffected; the mapping lives until their last release.
func (s *Server) handleIndexDelete(w http.ResponseWriter, r *http.Request) {
	if !s.requireCatalog(w, r) {
		return
	}
	hash, err := parseIndexHash(r)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	if !s.catalog.Delete(hash) {
		s.jsonError(w, http.StatusNotFound, errors.New("no such index"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// writeIndexJSON renders a /index response document.
func (s *Server) writeIndexJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	s.write(w, append(b, '\n'))
}
