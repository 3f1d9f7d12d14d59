package good

import "fix/ondemand"

// The per-record loop: the Err() check gates the blank-error terminal
// on every path that reaches it.
func gatedLoop(d *ondemand.Document, bufs [][]byte) {
	for _, b := range bufs {
		d.Reset(b)
		v := d.Root().Get("x")
		if v.Err() != nil {
			continue
		}
		raw, _ := v.Raw() // gated by the Err() check above
		_ = raw
	}
}

// Error captured and propagated: nothing discarded.
func handledErr(d *ondemand.Document, data []byte) (string, error) {
	d.Reset(data)
	v := d.Root().Get("x")
	s, err := v.String()
	if err != nil {
		return "", err
	}
	return s, nil
}

// Exists() gates the blank-error terminal.
func existsGate(d *ondemand.Document, data []byte) int64 {
	d.Reset(data)
	v := d.Root().Index(0)
	if !v.Exists() {
		return 0
	}
	n, _ := v.Int()
	return n
}
