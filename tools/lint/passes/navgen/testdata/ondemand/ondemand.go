// Package ondemand mimics the shape of the real on-demand API the
// analyzer polices: a Document bound to one buffer at a time and a
// Value with deferred-error terminals.
package ondemand

// Document owns a binding to one input buffer at a time.
type Document struct{ data []byte }

func (d *Document) Reset(data []byte) { d.data = data }
func (d *Document) Root() Value       { return Value{} }

// Value is a cursor into the document's current buffer. Navigation
// errors park on the value and surface at the terminals.
type Value struct{ err error }

func (v Value) Err() error              { return v.err }
func (v Value) Exists() bool            { return v.err == nil }
func (v Value) Get(key string) Value    { return v }
func (v Value) Index(i int) Value       { return v }
func (v Value) Raw() ([]byte, error)    { return nil, v.err }
func (v Value) String() (string, error) { return "", v.err }
func (v Value) Int() (int64, error)     { return 0, v.err }
func (v Value) Unmarshal(out any) error { return v.err }
