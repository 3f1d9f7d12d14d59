package fastforward

import (
	"reflect"
	"strings"
	"testing"

	"jsonski/internal/jsonpath"
	"jsonski/internal/telemetry"
)

// charged is one recorded charge: the op and the group it went to.
type charged struct {
	op Op
	g  Group
}

func (c charged) String() string { return c.op.String() + "/" + c.g.String() }

// movements holds at least one row per exported movement (Go*/Next*):
// an input with the cursor at 0, a call, and the charges the call must
// make there, in order. The rows state Table 1 (paper §3.2) apart from
// the code: a fixed-group op is charged to its group (NextAttr and
// GoOverPriAttrs G1, the *Out variants G3, GoToObjEnd G4, GoToAryEnd
// and GoOverElems G5). Movements whose caller picks the group run with
// a group that is not their usual one, so the row shows the group is
// passed through.
var movements = []struct {
	method string
	in     string
	call   func(*FF) error
	want   []charged
}{
	{"GoOverObj", `{"a":1} `, func(f *FF) error { return f.GoOverObj(G2) },
		[]charged{{OpGoOverObj, G2}}},
	{"GoOverAry", `[1,2] `, func(f *FF) error { return f.GoOverAry(G5) },
		[]charged{{OpGoOverAry, G5}}},
	{"GoOverPriAttr", `12,`, func(f *FF) error { _, err := f.GoOverPriAttr(G2); return err },
		[]charged{{OpGoOverPriAttr, G2}}},
	{"GoOverPriElem", `12]`, func(f *FF) error { _, err := f.GoOverPriElem(G5); return err },
		[]charged{{OpGoOverPriElem, G5}}},
	{"GoOverObjOut", `{"a":1} `, func(f *FF) error { _, err := f.GoOverObjOut(); return err },
		[]charged{{OpGoOverObjOut, G3}}},
	{"GoOverAryOut", `[1] `, func(f *FF) error { _, err := f.GoOverAryOut(); return err },
		[]charged{{OpGoOverAryOut, G3}}},
	{"GoOverPriAttrOut", `12,`, func(f *FF) error { _, _, err := f.GoOverPriAttrOut(); return err },
		[]charged{{OpGoOverPriAttrOut, G3}}},
	{"GoOverPriElemOut", `12]`, func(f *FF) error { _, _, err := f.GoOverPriElemOut(); return err },
		[]charged{{OpGoOverPriElemOut, G3}}},
	{"GoToObjEnd", `"x":1} `, func(f *FF) error { return f.GoToObjEnd() },
		[]charged{{OpGoToObjEnd, G4}}},
	{"GoToAryEnd", `1,2] `, func(f *FF) error { return f.GoToAryEnd() },
		[]charged{{OpGoToAryEnd, G5}}},
	{"GoOverElems", `{"a":1},[2],3,4,5]`, func(f *FF) error { _, _, err := f.GoOverElems(4); return err },
		[]charged{{OpGoOverObj, G5}, {OpGoOverElems, G5}, {OpGoOverAry, G5}, {OpGoOverElems, G5}, {OpGoOverPriElems, G5}}},
	{"NextAttr", `"a":1,"b":[0],"c":"x"}`, func(f *FF) error { _, err := f.NextAttr(jsonpath.Object); return err },
		[]charged{{OpGoOverPriAttrs, G1}, {OpGoOverAry, G1}, {OpGoOverPriAttrs, G1}}},
	{"NextAttr", `"b":[0],"a":{},"c":1}`, func(f *FF) error { _, err := f.NextAttr(jsonpath.Primitive); return err },
		[]charged{{OpGoOverAry, G1}, {OpNextAttr, G1}, {OpGoOverObj, G1}, {OpNextAttr, G1}}},
	{"NextElem", `1,2,{"a":1},"x",[0]]`, func(f *FF) error { _, err := f.NextElem(jsonpath.Array, 0); return err },
		[]charged{{OpGoOverPriElems, G1}, {OpGoOverObj, G1}, {OpGoOverPriElems, G1}}},
}

// TestMovementsChargeTable1 runs every exported movement on a traced
// cursor and checks each charge it makes: a fixed-group movement charges
// its Table 1 group under its op, and the events account for exactly
// the bytes Stats charged per group. A movement with no row fails.
func TestMovementsChargeTable1(t *testing.T) {
	rows := map[string]bool{}
	for _, m := range movements {
		rows[m.method] = true
	}
	ff := reflect.TypeOf(&FF{})
	for i := 0; i < ff.NumMethod(); i++ {
		name := ff.Method(i).Name
		if (strings.HasPrefix(name, "Go") || strings.HasPrefix(name, "Next")) && !rows[name] {
			t.Errorf("movement %s has no row in movements: add one with the charges Table 1 gives it", name)
		}
	}
	for i, m := range movements {
		f := ffAt(m.in, 0)
		f.Trace = telemetry.NewTrace(0)
		if err := m.call(f); err != nil {
			t.Fatalf("row %d (%s on %q): %v", i, m.method, m.in, err)
		}
		got := []charged{}
		var bytes [NumGroups]int64
		for _, e := range f.Trace.Events() {
			got = append(got, charged{Op(e.Op), Group(e.Group)})
			bytes[e.Group] += int64(e.End - e.Start)
		}
		if !reflect.DeepEqual(got, m.want) {
			t.Errorf("row %d (%s on %q): charges %v, want %v", i, m.method, m.in, got, m.want)
		}
		if bytes != f.Stats.SkippedBytes {
			t.Errorf("row %d (%s on %q): events cover %v bytes per group, Stats charged %v",
				i, m.method, m.in, bytes, f.Stats.SkippedBytes)
		}
	}
}

// TestOpTable: every op has a name.
func TestOpTable(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		if opNames[op] == "" {
			t.Errorf("op %d has no name", op)
		}
	}
}

// TestGroupValues: G1..G5 index Stats.SkippedBytes and the daemon's
// per-group counters in Table 1 order.
func TestGroupValues(t *testing.T) {
	if G1 != 0 || G2 != 1 || G3 != 2 || G4 != 3 || G5 != 4 || NumGroups != 5 {
		t.Fatalf("G1..G5, NumGroups = %d..%d, %d; want 0..4, 5", G1, G5, NumGroups)
	}
}
