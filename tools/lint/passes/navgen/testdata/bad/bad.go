package bad

import "fix/ondemand"

// Terminals with discarded errors on values no Err()/Exists() gates on
// the path to them. The last two shapes need flow sensitivity: a gate
// that comes after the use, or one that a re-assignment cleared.

func ignoredTerminal(d *ondemand.Document, data []byte) []byte {
	d.Reset(data)
	v := d.Root().Get("name")
	raw, _ := v.Raw() // want `v.Raw\(\) discards its error`
	return raw
}

func ignoredUnmarshal(d *ondemand.Document, data []byte, out *struct{ X int }) {
	d.Reset(data)
	d.Root().Unmarshal(out) // want `Unmarshal\(\) discards its error`
}

func gateAfterUse(d *ondemand.Document, data []byte) int64 {
	d.Reset(data)
	v := d.Root().Index(0)
	n, _ := v.Int() // want `v.Int\(\) discards its error`
	if !v.Exists() {
		return 0
	}
	return n
}

func gateClearedByReassign(d *ondemand.Document, data []byte) string {
	d.Reset(data)
	v := d.Root().Get("a")
	if v.Err() != nil {
		return ""
	}
	v = d.Root().Get("b")
	s, _ := v.String() // want `v.String\(\) discards its error`
	return s
}
