package jsonski

import (
	"errors"
	"strings"
	"testing"
)

func sumSkipped(st Stats) int64 {
	var t int64
	for _, v := range st.SkippedBytes {
		t += v
	}
	return t
}

const docInput = `{
  "id": 7,
  "user": {"name": "ada", "motto": "hi\tthere", "tags": ["x", "y"], "active": true},
  "items": [
    {"sku": "a1", "qty": 2, "price": 1.5},
    {"sku": "b2", "qty": 5, "price": 2.25},
    {"sku": "c3", "qty": 9, "price": 0.75}
  ],
  "note": null
}`

func TestDocumentGetChain(t *testing.T) {
	d := Open([]byte(docInput))
	name, err := d.Get("user").Get("name").String()
	if err != nil {
		t.Fatal(err)
	}
	if name != "ada" {
		t.Fatalf("name = %q", name)
	}
	qty, err := d.Get("items").Index(2).Get("qty").Int()
	if err != nil {
		t.Fatal(err)
	}
	if qty != 9 {
		t.Fatalf("qty = %d", qty)
	}
	if !d.Get("note").IsNull() {
		t.Fatal("note should be null")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if got := st.ScannedBytes() + sumSkipped(st); got != st.InputBytes {
		t.Fatalf("accounting: scanned+skipped = %d, input %d", got, st.InputBytes)
	}
}

func TestDocumentScalars(t *testing.T) {
	d := Open([]byte(docInput))
	user := d.Get("user")
	if k := user.Kind(); k != KindObject {
		t.Fatalf("user kind = %s", k)
	}
	motto, err := user.Get("motto").String()
	if err != nil || motto != "hi\tthere" {
		t.Fatalf("motto = %q, %v", motto, err)
	}
	active, err := user.Get("active").Bool()
	if err != nil || !active {
		t.Fatalf("active = %t, %v", active, err)
	}
	price, err := d.Get("items").Index(1).Get("price").Float()
	if err != nil || price != 2.25 {
		t.Fatalf("price = %v, %v", price, err)
	}
}

func TestDocumentUnmarshal(t *testing.T) {
	type item struct {
		SKU string  `json:"sku"`
		Qty int     `json:"qty"`
		P   float64 `json:"price"`
	}
	d := Open([]byte(docInput))
	var it item
	if err := d.Get("items").Index(1).Unmarshal(&it); err != nil {
		t.Fatal(err)
	}
	if it.SKU != "b2" || it.Qty != 5 || it.P != 2.25 {
		t.Fatalf("item = %+v", it)
	}
}

func TestDocumentLookupAndErrors(t *testing.T) {
	d := Open([]byte(docInput))
	raw, err := d.Lookup("items", "0", "sku").Raw()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `"a1"` {
		t.Fatalf("lookup raw = %q", raw)
	}

	// missing attribute: ErrNotFound, chain stays sticky
	v := d.Get("nope").Get("deeper").Index(4)
	if !errors.Is(v.Err(), ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", v.Err())
	}
	if v.Exists() {
		t.Fatal("missing value must not exist")
	}

	// forward-only: re-requesting a passed attribute name is not-found
	// (the scan never rewinds), and a passed element is ErrCursorPassed
	d2 := Open([]byte(docInput))
	items := d2.Get("items")
	if _, err := items.Index(1).Raw(); err != nil {
		t.Fatal(err)
	}
	if _, err := items.Index(0).Raw(); !errors.Is(err, ErrCursorPassed) {
		t.Fatalf("backwards err = %v, want ErrCursorPassed", err)
	}
	if v := d2.Get("id"); !errors.Is(v.Err(), ErrNotFound) {
		t.Fatalf("passed name err = %v, want ErrNotFound", v.Err())
	}
}

func TestDocumentIterators(t *testing.T) {
	d := Open([]byte(docInput))
	var names []string
	err := d.Root().Fields(func(name []byte, child Value) bool {
		names = append(names, string(name))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names, ","); got != "id,user,items,note" {
		t.Fatalf("names = %s", got)
	}

	d.Reset([]byte(docInput))
	var skus []string
	err = d.Get("items").Elements(func(i int, el Value) bool {
		s, err := el.Get("sku").String()
		if err != nil {
			t.Fatalf("element %d: %v", i, err)
		}
		skus = append(skus, s)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(skus, ","); got != "a1,b2,c3" {
		t.Fatalf("skus = %s", got)
	}
}

func TestDocumentIndexedAndReset(t *testing.T) {
	ix := BuildIndex([]byte(docInput))
	d := OpenIndexed(ix)
	qty, err := d.Lookup("items", "2", "qty").Int()
	if err != nil || qty != 9 {
		t.Fatalf("qty = %d, %v", qty, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if got := st.ScannedBytes() + sumSkipped(st); got != st.InputBytes {
		t.Fatalf("accounting: scanned+skipped = %d, input %d", got, st.InputBytes)
	}

	// reuse the same document over a plain buffer
	d.Reset([]byte(`[10, 20, 30]`))
	n, err := d.Index(1).Int()
	if err != nil || n != 20 {
		t.Fatalf("reset index = %d, %v", n, err)
	}
}

// TestStaleValueAnswersCursorPassed runs every Value method on a value
// obtained before its document re-binds. Each must answer with
// ErrCursorPassed instead of reading the new buffer at the old offset.
func TestStaleValueAnswersCursorPassed(t *testing.T) {
	next := []byte(`{"b":{"c":"xyz"}}`)
	rebinds := []struct {
		name   string
		rebind func(*Document)
	}{
		{"Reset", func(d *Document) { d.Reset(next) }},
		{"ResetIndexed", func(d *Document) { d.ResetIndexed(BuildIndex(next)) }},
	}
	methods := []struct {
		name string
		call func(Value) error
	}{
		{"Err", func(v Value) error { return v.Err() }},
		{"Get", func(v Value) error { return v.Get("c").Err() }},
		{"Index", func(v Value) error { return v.Index(0).Err() }},
		{"Raw", func(v Value) error { _, err := v.Raw(); return err }},
		{"String", func(v Value) error { _, err := v.String(); return err }},
		{"Int", func(v Value) error { _, err := v.Int(); return err }},
		{"Float", func(v Value) error { _, err := v.Float(); return err }},
		{"Bool", func(v Value) error { _, err := v.Bool(); return err }},
		{"Unmarshal", func(v Value) error { return v.Unmarshal(new(any)) }},
		{"Fields", func(v Value) error { return v.Fields(func([]byte, Value) bool { return true }) }},
		{"Elements", func(v Value) error { return v.Elements(func(int, Value) bool { return true }) }},
	}
	stale := func(rebind func(*Document)) Value {
		d := Open([]byte(`{"a": [1, 2]}`))
		v := d.Get("a")
		rebind(d)
		return v
	}
	for _, rb := range rebinds {
		for _, m := range methods {
			if err := m.call(stale(rb.rebind)); !errors.Is(err, ErrCursorPassed) {
				t.Errorf("%s, then %s: err = %v, want ErrCursorPassed", rb.name, m.name, err)
			}
		}
		v := stale(rb.rebind)
		if v.Exists() || v.IsNull() || v.Kind() != KindInvalid {
			t.Errorf("%s: Exists = %v, IsNull = %v, Kind = %v; want false, false, %v",
				rb.name, v.Exists(), v.IsNull(), v.Kind(), KindInvalid)
		}
	}
}

func TestDocumentExplain(t *testing.T) {
	d := Open([]byte(docInput))
	d.Explain(0)
	if _, err := d.Get("items").Index(2).Get("qty").Raw(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	tr := d.Stats().Trace()
	if tr == nil || len(tr.Events) == 0 {
		t.Fatal("explain mode must record movements")
	}
	sawG5 := false
	for _, e := range tr.Events {
		if e.Group == "G5" {
			sawG5 = true
		}
	}
	if !sawG5 {
		t.Fatalf("expected a G5 movement in %d events", len(tr.Events))
	}
}

// TestOnDemandGetAllocs pins the steady-state allocation budget of the
// indexed navigation path: Reset + hops + Raw + Close must stay within
// two allocations per record (ISSUE 9 acceptance).
func TestOnDemandGetAllocs(t *testing.T) {
	data := []byte(docInput)
	ix := BuildIndex(data)
	d := OpenIndexed(ix)
	// warm up: frame stack growth happens on the first pass
	if _, err := d.Lookup("items", "2", "qty").Raw(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		d.ResetIndexed(ix)
		raw, err := d.Lookup("items", "2", "qty").Raw()
		if err != nil || string(raw) != "9" {
			t.Fatalf("raw = %q, %v", raw, err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("allocs/op = %g, want <= 2", avg)
	}
}
