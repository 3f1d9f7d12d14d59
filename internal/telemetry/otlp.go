package telemetry

import (
	"encoding/json"
	"strconv"
)

// OTLP/JSON trace encoding (opentelemetry-proto, trace service): the
// proto3 canonical JSON mapping of ExportTraceServiceRequest, built
// with plain structs so the exporter stays dependency-free. int64 and
// fixed64 fields are strings, byte IDs are lowercase hex, enum fields
// are numbers — exactly what an OTLP/HTTP collector's /v1/traces
// endpoint accepts with Content-Type: application/json.

type otlpAnyValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"`
	DoubleValue *float64 `json:"doubleValue,omitempty"`
	BoolValue   *bool    `json:"boolValue,omitempty"`
}

type otlpKeyValue struct {
	Key   string       `json:"key"`
	Value otlpAnyValue `json:"value"`
}

type otlpEvent struct {
	TimeUnixNano string         `json:"timeUnixNano"`
	Name         string         `json:"name"`
	Attributes   []otlpKeyValue `json:"attributes,omitempty"`
}

type otlpStatus struct {
	Message string `json:"message,omitempty"`
	Code    int    `json:"code,omitempty"` // 0 UNSET, 1 OK, 2 ERROR
}

type otlpSpan struct {
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	Name              string         `json:"name"`
	Kind              int            `json:"kind"` // 2 = SPAN_KIND_SERVER
	StartTimeUnixNano string         `json:"startTimeUnixNano"`
	EndTimeUnixNano   string         `json:"endTimeUnixNano"`
	Attributes        []otlpKeyValue `json:"attributes,omitempty"`
	Events            []otlpEvent    `json:"events,omitempty"`
	DroppedEvents     int            `json:"droppedEventsCount,omitempty"`
	TraceState        string         `json:"traceState,omitempty"`
	Status            otlpStatus     `json:"status"`
}

type otlpScopeSpans struct {
	Scope struct {
		Name string `json:"name"`
	} `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpResourceSpans struct {
	Resource struct {
		Attributes []otlpKeyValue `json:"attributes"`
	} `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpExport struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

// spanKindServer is the only kind this process emits: every span
// belongs to serving one inbound request.
const spanKindServer = 2

func otlpAttr(a Attr) otlpKeyValue {
	kv := otlpKeyValue{Key: a.Key}
	switch a.kind {
	case attrString:
		kv.Value.StringValue = &a.s
	case attrInt:
		v := strconv.FormatInt(a.i, 10)
		kv.Value.IntValue = &v
	case attrFloat:
		kv.Value.DoubleValue = &a.f
	case attrBool:
		kv.Value.BoolValue = &a.b
	}
	return kv
}

func otlpAttrs(attrs []Attr) []otlpKeyValue {
	if len(attrs) == 0 {
		return nil
	}
	out := make([]otlpKeyValue, len(attrs))
	for i, a := range attrs {
		out[i] = otlpAttr(a)
	}
	return out
}

// otlpFromSpan renders one finished span.
func otlpFromSpan(sp *Span) otlpSpan {
	out := otlpSpan{
		TraceID:           sp.ctx.TraceID.String(),
		SpanID:            sp.ctx.SpanID.String(),
		Name:              sp.name,
		Kind:              spanKindServer,
		StartTimeUnixNano: strconv.FormatInt(sp.start.UnixNano(), 10),
		EndTimeUnixNano:   strconv.FormatInt(sp.end.UnixNano(), 10),
		Attributes:        otlpAttrs(sp.attrs),
		DroppedEvents:     sp.droppedEvents,
		TraceState:        sp.ctx.State,
	}
	if sp.parent.IsValid() {
		out.ParentSpanID = sp.parent.String()
	}
	if len(sp.events) > 0 {
		out.Events = make([]otlpEvent, len(sp.events))
		for i, e := range sp.events {
			out.Events[i] = otlpEvent{
				TimeUnixNano: strconv.FormatInt(e.Time.UnixNano(), 10),
				Name:         e.Name,
				Attributes:   otlpAttrs(e.Attrs),
			}
		}
	}
	if sp.errMsg != "" {
		out.Status = otlpStatus{Code: 2, Message: sp.errMsg}
	}
	return out
}

// EncodeOTLP renders a batch of finished spans as one OTLP/JSON export
// request body, attributed to the named service.
func EncodeOTLP(spans []*Span, service string) []byte {
	var rs otlpResourceSpans
	rs.Resource.Attributes = []otlpKeyValue{otlpAttr(String("service.name", service))}
	ss := otlpScopeSpans{Spans: make([]otlpSpan, len(spans))}
	ss.Scope.Name = "jsonski/internal/telemetry"
	for i, sp := range spans {
		ss.Spans[i] = otlpFromSpan(sp)
	}
	rs.ScopeSpans = []otlpScopeSpans{ss}
	b, _ := json.Marshal(otlpExport{ResourceSpans: []otlpResourceSpans{rs}})
	return b
}

// EncodeSpanLine renders one span as a single NDJSON line (no trailing
// newline) for the exporter's file sink: the same otlpSpan object, one
// per line, so the file greps and jq-slurps without assembling batches.
func EncodeSpanLine(sp *Span) []byte {
	b, _ := json.Marshal(otlpFromSpan(sp))
	return b
}
