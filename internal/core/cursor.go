package core

// cursor is the push-mode face of the Navigator substrate: the
// recursive-descent driver (driver.go) and the stepper-policy engines
// layer match/emit accounting on top of the navigation core that owns
// stream position, fast-forward dispatch, and trace binding (nav.go).
//
// A cursor is reusable across runs but not safe for concurrent use.
type cursor struct {
	Navigator

	out EmitFunc // single-query span callback; nil counts only

	matches int64
}

// begin resets per-run accounting and installs the output callback.
func (c *cursor) begin(out EmitFunc) {
	c.out = out
	c.matches = 0
	c.depth = 0
}

// stats snapshots the run's accounting.
func (c *cursor) stats(inputBytes int64) Stats {
	return Stats{
		Matches:        c.matches,
		InputBytes:     inputBytes,
		Skipped:        c.ff.Stats,
		WordsProcessed: c.s.WordsProcessed,
	}
}

// emitSpan reports one match through the single-query callback.
func (c *cursor) emitSpan(start, end int) {
	c.matches++
	if c.out != nil {
		c.out(start, end)
	}
}

// trimWSEnd backs end up over trailing JSON whitespace in data[start:end].
func trimWSEnd(data []byte, start, end int) int {
	for end > start && (data[end-1] == ' ' || data[end-1] == '\t' || data[end-1] == '\n' || data[end-1] == '\r') {
		end--
	}
	return end
}
