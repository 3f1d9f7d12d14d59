package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// goldenSpans builds a fixed two-span trace — every field populated,
// IDs and times pinned — so the encoder's output is byte-reproducible.
func goldenSpans() []*Span {
	traceID := TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36}
	rootID := SpanID{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7}
	childID := SpanID{0x53, 0x99, 0x5c, 0x3f, 0x42, 0xcd, 0x8a, 0xd8}
	callerID := SpanID{0xb7, 0xad, 0x6b, 0x71, 0x69, 0x20, 0x33, 0x31}
	set := &spanSet{} // non-nil so attribute setters record
	child := &Span{
		set:    set,
		name:   "engine.run",
		ctx:    SpanContext{TraceID: traceID, SpanID: childID, Sampled: true},
		parent: rootID,
		start:  time.Unix(1700000000, 100).UTC(),
		end:    time.Unix(1700000000, 2500).UTC(),
	}
	child.SetInt("jsonski.matches", 3)
	child.SetInt("jsonski.ff.bytes.G1", 4096)
	child.SetInt("jsonski.scanned.bytes", 512)
	child.SetFloat("jsonski.skip.ratio", 0.889)
	child.SetBool("jsonski.indexed", false)
	child.events = []SpanEvent{{
		Name:  "GoOverObj",
		Time:  time.Unix(1700000000, 700).UTC(),
		Attrs: []Attr{String("group", "G2"), Int("bytes", 128)},
	}}
	child.droppedEvents = 2
	child.SetError(errors.New("record 1: bare value"))
	root := &Span{
		set:    set,
		name:   "POST /query",
		ctx:    SpanContext{TraceID: traceID, SpanID: rootID, Sampled: true, State: "vendor=x"},
		parent: callerID,
		root:   true,
		start:  time.Unix(1700000000, 0).UTC(),
		end:    time.Unix(1700000000, 5000).UTC(),
	}
	root.SetString("http.route", "/query")
	root.SetInt("http.status_code", 200)
	return []*Span{child, root}
}

// TestExporterGolden pins the OTLP/JSON wire format against a
// checked-in fixture: any drift in field names, ID rendering, or the
// stringified int64 convention fails here before a collector sees it.
// Regenerate deliberately with UPDATE_OTLP_GOLDEN=1.
func TestExporterGolden(t *testing.T) {
	got := EncodeOTLP(goldenSpans(), "jsonskid")
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, got, "", "  "); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v", err)
	}
	pretty.WriteByte('\n')
	golden := filepath.Join("testdata", "otlp_golden.json")
	if os.Getenv("UPDATE_OTLP_GOLDEN") != "" {
		if err := os.WriteFile(golden, pretty.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden: %v (regenerate with UPDATE_OTLP_GOLDEN=1)", err)
	}
	if !bytes.Equal(pretty.Bytes(), want) {
		t.Fatalf("OTLP encoding drifted from %s.\ngot:\n%s\nwant:\n%s", golden, pretty.Bytes(), want)
	}
}
