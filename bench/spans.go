package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a bench span around a
// call into one layer, or a jsonskid span read back from its trace file
// and stitched under the bench's client span for that request.
type span struct {
	Name   string `json:"name"`
	Origin string `json:"origin"` // "bench" or "jsonskid"
	Trace  string `json:"trace_id"`
	ID     string `json:"span_id"`
	Parent string `json:"parent_id,omitempty"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
	SelfNs int64  `json:"self_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps every span of a run in memory; write puts them out as
// NDJSON when the run ends, so recording costs no I/O while measuring.
type spanLog struct {
	mu    sync.Mutex
	spans []*span
	ids   uint64
	trace string
}

func newSpanLog(seed int64) *spanLog {
	return &spanLog{trace: fmt.Sprintf("bench-%d-%d", seed, time.Now().UnixNano())}
}

// start opens a bench span under parent (nil for a root).
func (l *spanLog) start(name string, parent *span) *span {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ids++
	s := &span{Name: name, Origin: "bench", Trace: l.trace, ID: strconv.FormatUint(l.ids, 16), Start: time.Now().UnixNano()}
	if parent != nil {
		s.Parent, s.Trace = parent.ID, parent.Trace
	}
	l.spans = append(l.spans, s)
	return s
}

// end closes s and returns its duration.
func (s *span) end() time.Duration {
	s.End = time.Now().UnixNano()
	return s.dur()
}

func (l *spanLog) add(s *span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// write computes every span's self time and writes the log as NDJSON.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	fillSelf(l.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fillSelf sets each span's self time: its duration minus the part of
// its interval that its children cover. Children that overlap each
// other (records evaluated in parallel) are counted once.
func fillSelf(spans []*span) {
	kids := map[string][]*span{}
	for _, s := range spans {
		if s.Parent != "" {
			k := s.Trace + "/" + s.Parent
			kids[k] = append(kids[k], s)
		}
	}
	for _, s := range spans {
		s.SelfNs = int64(s.dur() - covered(s, kids[s.Trace+"/"+s.ID]))
	}
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent *span, children []*span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// otlpLine is the part of one jsonskid trace-file line the bench reads.
type otlpLine struct {
	TraceID string `json:"traceId"`
	SpanID  string `json:"spanId"`
	Parent  string `json:"parentSpanId"`
	Name    string `json:"name"`
	Start   string `json:"startTimeUnixNano"`
	End     string `json:"endTimeUnixNano"`
}

// readServerSpans loads a jsonskid -trace-file NDJSON file, grouped by
// trace id.
func readServerSpans(path string) (map[string][]*span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*span{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var l otlpLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
		start, err1 := strconv.ParseInt(l.Start, 10, 64)
		end, err2 := strconv.ParseInt(l.End, 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("trace file: bad timestamps in span %s", l.SpanID)
		}
		out[l.TraceID] = append(out[l.TraceID], &span{
			Name: l.Name, Origin: "jsonskid", Trace: l.TraceID, ID: l.SpanID,
			Parent: l.Parent, Start: start, End: end,
		})
	}
	return out, sc.Err()
}

// serverShares stitches the daemon's traces under the bench's client
// spans and returns, over complete trees only, the share of server
// root time covered by each child span name and the roots' self share.
// A tree is complete when it has exactly one root, every other span's
// parent is in the tree, and the bench holds the client span that
// carried the request.
func serverShares(log *spanLog, traces map[string][]*span, clients map[string]*span) (shares map[string]float64, selfShare float64, trees int) {
	covers := map[string]time.Duration{}
	var rootTotal, selfTotal time.Duration
	for tid, spans := range traces {
		client, ok := clients[tid]
		if !ok {
			continue
		}
		ids := map[string]bool{}
		for _, s := range spans {
			ids[s.ID] = true
		}
		var root *span
		complete := true
		for _, s := range spans {
			switch {
			case s.Parent == "" && root == nil:
				root = s
			case s.Parent == "" || !ids[s.Parent]:
				complete = false
			}
		}
		if root == nil || !complete {
			continue
		}
		trees++
		root.Parent = client.ID
		for _, s := range spans {
			log.add(s)
		}
		byName := map[string][]*span{}
		var kids []*span
		for _, s := range spans {
			if s.Parent == root.ID {
				byName[s.Name] = append(byName[s.Name], s)
				kids = append(kids, s)
			}
		}
		for name, ss := range byName {
			covers[name] += covered(root, ss)
		}
		rootTotal += root.dur()
		selfTotal += root.dur() - covered(root, kids)
	}
	shares = map[string]float64{}
	if rootTotal == 0 {
		return shares, 0, 0
	}
	for name, c := range covers {
		shares[name] = float64(c) / float64(rootTotal)
	}
	return shares, float64(selfTotal) / float64(rootTotal), trees
}

// traceIDOf extracts the trace id from a W3C traceparent header.
func traceIDOf(traceparent string) string {
	parts := strings.Split(traceparent, "-")
	if len(parts) < 4 {
		return ""
	}
	return parts[1]
}
