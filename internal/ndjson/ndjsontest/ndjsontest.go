// Package ndjsontest holds the framing cases that the ndjson package and
// jsonskid's NDJSON handlers are both tested against: streams cut into
// reads, and the records each must frame.
package ndjsontest

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing/iotest"
)

// Case is a stream cut into reads, and the records it holds.
type Case struct {
	Name   string
	Pieces []string // the stream, one piece per read
	Err    error    // what the read after the last piece returns; nil for io.EOF
	Recs   []string // the records the stream holds, in order
	Failed int      // how many of Recs are malformed JSON
}

// Reader returns a reader of c's stream that hands out one piece per
// Read (as much of it as fits), so the case decides where reads end.
func (c Case) Reader() io.Reader {
	var rs []io.Reader
	for _, p := range c.Pieces {
		rs = append(rs, strings.NewReader(p))
	}
	if c.Err != nil {
		rs = append(rs, iotest.ErrReader(c.Err))
	}
	return io.MultiReader(rs...)
}

// Cases returns the framing cases: reads that split a record, a record
// longer than one 64 KiB read, CRLF, blank lines, no trailing newline,
// malformed records, an empty body, a read error after a partial
// record, and a mixed stream in random reads.
func Cases() []Case {
	long := `{"v":1,"k":"` + strings.Repeat("x", 80<<10) + `"}`
	return []Case{
		{
			Name:   "reads split records mid-line",
			Pieces: []string{`{"v":0,"k":"a"}` + "\n" + `{"v":1,`, `"k":"b"}` + "\n" + `{"v":`, `2,"k":"c"}`, "\n"},
			Recs:   []string{`{"v":0,"k":"a"}`, `{"v":1,"k":"b"}`, `{"v":2,"k":"c"}`},
		},
		{
			Name:   "record longer than 64 KiB",
			Pieces: []string{`{"v":0,"k":"a"}` + "\n" + long[:1000], long[1000:] + "\n" + `{"v":2,"k":"c"}` + "\n"},
			Recs:   []string{`{"v":0,"k":"a"}`, long, `{"v":2,"k":"c"}`},
		},
		{
			Name:   "CRLF line endings",
			Pieces: []string{"{\"v\":0,\"k\":\"a\"}\r\n{\"v\":1,\"k\":\"b\"}\r", "\n{\"v\":2,\"k\":\"c\"}\r\n"},
			Recs:   []string{`{"v":0,"k":"a"}`, `{"v":1,"k":"b"}`, `{"v":2,"k":"c"}`},
		},
		{
			Name:   "blank and whitespace-only lines",
			Pieces: []string{"\n  \n{\"v\":0,\"k\":\"a\"}\n\t \r\n\n", "   \n{\"v\":1,\"k\":\"b\"}\n \t"},
			Recs:   []string{`{"v":0,"k":"a"}`, `{"v":1,"k":"b"}`},
		},
		{
			Name:   "last record without a newline",
			Pieces: []string{`{"v":0,"k":"a"}` + "\n" + `{"v":1,"k":"b"}`},
			Recs:   []string{`{"v":0,"k":"a"}`, `{"v":1,"k":"b"}`},
		},
		{
			// Record 3 matches $.v before it fails: a stream handler's
			// error line replaces the match lines it rendered.
			Name:   "malformed records mid-batch",
			Pieces: []string{`{"v":0,"k":"a"}` + "\n" + `{"v":{"k":` + "\n" + `{"v":2,"k":"c"}` + "\n" + `{"v":3,"k":"d",` + "\n", `{"v":4,"k":"e"}` + "\n"},
			Recs:   []string{`{"v":0,"k":"a"}`, `{"v":{"k":`, `{"v":2,"k":"c"}`, `{"v":3,"k":"d",`, `{"v":4,"k":"e"}`},
			Failed: 2,
		},
		{Name: "empty body"},
		{
			Name:   "read error after a partial record",
			Pieces: []string{`{"v":0,"k":"a"}` + "\n" + `{"v":1,`, `"k":"b"}`},
			Err:    errors.New("connection reset"),
			Recs:   []string{`{"v":0,"k":"a"}`, `{"v":1,"k":"b"}`},
		},
		mixed(),
	}
}

// mixed is a stream of blank lines, CRLF, malformed records and records
// of up to 70 KiB, cut into reads of random length.
func mixed() Case {
	rng := rand.New(rand.NewSource(1))
	c := Case{Name: "mixed stream in random reads"}
	var stream strings.Builder
	for i := 0; i < 300; i++ {
		var rec string
		switch rng.Intn(8) {
		case 0:
			stream.WriteString(" \t\n")
			continue
		case 1:
			rec = `{"v":{"k":`
			c.Failed++
		case 2:
			rec = fmt.Sprintf(`{"v":%d,"k":"%s"}`, i, strings.Repeat("x", rng.Intn(70<<10)))
		default:
			rec = fmt.Sprintf(`{"v":%d,"k":"s%d"}`, i, i)
		}
		c.Recs = append(c.Recs, rec)
		stream.WriteString(rec)
		if rng.Intn(2) == 0 {
			stream.WriteByte('\r')
		}
		stream.WriteByte('\n')
	}
	for rest := stream.String(); len(rest) > 0; {
		n := min(1+rng.Intn(9000), len(rest))
		c.Pieces = append(c.Pieces, rest[:n])
		rest = rest[n:]
	}
	return c
}
