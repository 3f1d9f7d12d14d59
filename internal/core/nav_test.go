package core

import (
	"errors"
	"strings"
	"testing"

	"jsonski/internal/automaton"
	"jsonski/internal/fastforward"
	"jsonski/internal/jsonpath"
)

const navDoc = `{
  "id": 7,
  "user": {"name": "ada", "tags": ["x", "y"], "active": true},
  "items": [
    {"sku": "a1", "qty": 2},
    {"sku": "b2", "qty": 5},
    {"sku": "c3", "qty": 9}
  ],
  "note": null
}`

func navRaw(t *testing.T, n *Navigator, v NavValue) string {
	t.Helper()
	start, end, err := n.Raw(v)
	if err != nil {
		t.Fatalf("Raw: %v", err)
	}
	return string(n.Data()[start:end])
}

func TestNavigatorFieldHops(t *testing.T) {
	var n Navigator
	n.Bind([]byte(navDoc))
	root, err := n.Root()
	if err != nil {
		t.Fatal(err)
	}
	user, found, err := n.Field(root, "user", jsonpath.Object)
	if err != nil || !found {
		t.Fatalf("Field(user) = %v found=%t", err, found)
	}
	name, found, err := n.Field(user, "name", jsonpath.Unknown)
	if err != nil || !found {
		t.Fatalf("Field(name) = %v found=%t", err, found)
	}
	if got := navRaw(t, &n, name); got != `"ada"` {
		t.Fatalf("name raw = %q", got)
	}
	// sibling after a consumed child: tags[1]
	tags, found, err := n.Field(user, "tags", jsonpath.Array)
	if err != nil || !found {
		t.Fatalf("Field(tags) = %v found=%t", err, found)
	}
	el, found, err := n.Elem(tags, 1)
	if err != nil || !found {
		t.Fatalf("Elem(1) = %v found=%t", err, found)
	}
	if got := navRaw(t, &n, el); got != `"y"` {
		t.Fatalf("tags[1] raw = %q", got)
	}
	// back out two frames: a later sibling of the root
	items, found, err := n.Field(root, "items", jsonpath.Array)
	if err != nil || !found {
		t.Fatalf("Field(items) = %v found=%t", err, found)
	}
	it, found, err := n.Elem(items, 2)
	if err != nil || !found {
		t.Fatalf("Elem(2) = %v found=%t", err, found)
	}
	qty, found, err := n.Field(it, "qty", jsonpath.Unknown)
	if err != nil || !found {
		t.Fatalf("Field(qty) = %v found=%t", err, found)
	}
	if got := navRaw(t, &n, qty); got != "9" {
		t.Fatalf("qty raw = %q", got)
	}
	if err := n.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	st := n.Stats()
	if got := st.ScannedBytes() + st.Skipped.TotalSkipped(); got != st.InputBytes {
		t.Fatalf("accounting: scanned+ff = %d, input %d", got, st.InputBytes)
	}
}

func TestNavigatorRawOpenContainer(t *testing.T) {
	var n Navigator
	n.Bind([]byte(navDoc))
	root, _ := n.Root()
	user, _, err := n.Field(root, "user", jsonpath.Object)
	if err != nil {
		t.Fatal(err)
	}
	// descend, then ask for the full span of the already-open container
	if _, _, err := n.Field(user, "name", jsonpath.Unknown); err != nil {
		t.Fatal(err)
	}
	got := navRaw(t, &n, user)
	want := `{"name": "ada", "tags": ["x", "y"], "active": true}`
	if got != want {
		t.Fatalf("open-container raw = %q, want %q", got, want)
	}
	// the object close was a G4 movement
	if n.Stats().Skipped.SkippedBytes[fastforward.G4] == 0 {
		t.Fatal("expected a G4 charge from closing the open object")
	}
}

func TestNavigatorForwardOnlyErrors(t *testing.T) {
	var n Navigator
	n.Bind([]byte(navDoc))
	root, _ := n.Root()
	id, _, err := n.Field(root, "id", jsonpath.Unknown)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Field(root, "user", jsonpath.Unknown); err != nil {
		t.Fatal(err)
	}
	// id's span was skipped when the cursor moved on to user
	if _, _, err := n.Raw(id); !errors.Is(err, ErrCursorPassed) {
		t.Fatalf("Raw(stale) err = %v, want ErrCursorPassed", err)
	}
	// a field before the cursor is not found (no rescan), and the scan
	// closes the object
	if _, found, err := n.Field(root, "id", jsonpath.Unknown); err != nil || found {
		t.Fatalf("Field(passed name) = found=%t err=%v, want not-found", found, err)
	}

	n.Bind([]byte(navDoc))
	root, _ = n.Root()
	items, _, _ := n.Field(root, "items", jsonpath.Array)
	if _, _, err := n.Elem(items, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Elem(items, 0); !errors.Is(err, ErrCursorPassed) {
		t.Fatalf("Elem backwards err = %v, want ErrCursorPassed", err)
	}

	// values die across binds
	n.Bind([]byte(navDoc))
	if _, _, err := n.Raw(items); !errors.Is(err, ErrCursorPassed) {
		t.Fatalf("Raw(previous bind) err = %v, want ErrCursorPassed", err)
	}
}

func TestNavigatorIterators(t *testing.T) {
	var n Navigator
	n.Bind([]byte(navDoc))
	root, _ := n.Root()
	var names []string
	err := n.Fields(root, func(name []byte, child NavValue) (bool, error) {
		names = append(names, string(name))
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names, ","); got != "id,user,items,note" {
		t.Fatalf("field names = %s", got)
	}

	n.Bind([]byte(navDoc))
	root, _ = n.Root()
	items, _, _ := n.Field(root, "items", jsonpath.Array)
	var skus []string
	err = n.Elems(items, func(idx int, child NavValue) (bool, error) {
		sku, found, err := n.Field(child, "sku", jsonpath.Unknown)
		if err != nil || !found {
			t.Fatalf("sku of element %d: %v found=%t", idx, err, found)
		}
		skus = append(skus, navRaw(t, &n, sku))
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(skus, ","); got != `"a1","b2","c3"` {
		t.Fatalf("skus = %s", got)
	}
	if err := n.Finish(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if got := st.ScannedBytes() + st.Skipped.TotalSkipped(); got != st.InputBytes {
		t.Fatalf("accounting: scanned+ff = %d, input %d", got, st.InputBytes)
	}
}

func TestNavigatorRootPrimitive(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`  42 `, "42"},
		{`"a, b"`, `"a, b"`},
		{`null`, "null"},
	} {
		var n Navigator
		n.Bind([]byte(tc.in))
		root, err := n.Root()
		if err != nil {
			t.Fatal(err)
		}
		if got := navRaw(t, &n, root); got != tc.want {
			t.Fatalf("root raw of %q = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestNavigatorChargesMatchCompiledQuery pins the promise that a
// navigation hop sequence charges the same Table 1 groups as the
// equivalent compiled query: the movement vocabulary is shared, so the
// emitted span must be byte-identical and every input byte must land in
// scanned or a group either way.
func TestNavigatorChargesMatchCompiledQuery(t *testing.T) {
	p, err := jsonpath.Parse(`$.items[2].qty`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(automaton.New(p))
	var spans [][2]int
	if _, err := e.Run([]byte(navDoc), func(_, a, b int) { spans = append(spans, [2]int{a, b}) }); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("engine spans = %v", spans)
	}

	var n Navigator
	n.Bind([]byte(navDoc))
	root, _ := n.Root()
	items, _, _ := n.Field(root, "items", jsonpath.Array)
	it, _, _ := n.Elem(items, 2)
	qty, found, err := n.Field(it, "qty", jsonpath.Unknown)
	if err != nil || !found {
		t.Fatalf("navigate: %v found=%t", err, found)
	}
	start, end, err := n.Raw(qty)
	if err != nil {
		t.Fatal(err)
	}
	if start != spans[0][0] || end != spans[0][1] {
		t.Fatalf("nav span [%d,%d) != engine span %v", start, end, spans[0])
	}
	if err := n.Finish(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if got := st.ScannedBytes() + st.Skipped.TotalSkipped(); got != st.InputBytes {
		t.Fatalf("accounting: scanned+ff = %d, input %d", got, st.InputBytes)
	}
	if st.Skipped.SkippedBytes[fastforward.G3] == 0 {
		t.Fatal("Raw must charge G3")
	}
	if st.Skipped.SkippedBytes[fastforward.G5] == 0 {
		t.Fatal("Elem(2) must charge G5")
	}
}

// TestNavigatorRawIdempotent pins the memoized re-read: Raw on the
// value just consumed returns the same span without moving the cursor,
// so chained scalar decodes of one value work; any other passed value
// still fails.
func TestNavigatorRawIdempotent(t *testing.T) {
	var n Navigator
	n.Bind([]byte(navDoc))
	root, _ := n.Root()
	user, _, _ := n.Field(root, "user", jsonpath.Object)
	name, found, err := n.Field(user, "name", jsonpath.Unknown)
	if err != nil || !found {
		t.Fatalf("Field(name) = %v found=%t", err, found)
	}
	s1, e1, err := n.Raw(name)
	if err != nil {
		t.Fatal(err)
	}
	s2, e2, err := n.Raw(name)
	if err != nil || s2 != s1 || e2 != e1 {
		t.Fatalf("repeat Raw = [%d,%d) %v, want [%d,%d)", s2, e2, err, s1, e1)
	}
	// moving on invalidates the memo for name's sibling reads
	tags, _, _ := n.Field(user, "tags", jsonpath.Array)
	if _, _, err := n.Raw(tags); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Raw(name); !errors.Is(err, ErrCursorPassed) {
		t.Fatalf("Raw(stale after later Raw) err = %v, want ErrCursorPassed", err)
	}
}
