package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"jsonski"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/gen"
	"jsonski/internal/queries"
)

// workload is one seeded input set plus the traffic that drives it.
// The benchmark takes the seed; the programs under test only ever see
// the generated inputs.
type workload struct {
	name string
	why  string
	// http workloads drive jsonskid over loopback; the others run the
	// jsonski CLI once per operation.
	http bool
	// rate is the open-loop Poisson arrival rate in requests per second
	// for the traced run's daemon phase: about a quarter of the
	// closed-loop capacity measured with two connections on the
	// reference machine (bench/README.md), then frozen so that the
	// generator's lateness and the daemon's queue are read at the same
	// offered load on every commit.
	rate float64
	ops  func(sz sizes, seed int64, dir string) ([]*op, error)
}

var workloads = []workload{
	{
		name: "large-scan",
		why:  "12 Table-5 queries through the CLI over one large record per dataset; skips of 92-100% leave classification and fast-forwarding nearly all the work",
		rate: 40,
		ops:  largeScanOps,
	},
	{
		name: "records-scan",
		why:  "10 small-record queries through the CLI over NDJSON of ~500 B records; per-record fixed costs (framing, engine pool, sink, bind) weigh heavily",
		rate: 10,
		ops:  recordsScanOps,
	},
	{
		name: "http-ndjson",
		why:  "jsonskid NDJSON bodies of 64 records, 75% /query and 25% /multi over 10 TT paths: lazy per-record classification, worker pool, ordered write-back",
		http: true,
		rate: 300,
		ops:  httpNDJSONOps,
	},
	{
		name: "http-doc-hot",
		why:  "jsonskid /query and /doc over 8 hot 256 KiB documents that always hit the index cache: no classification, so per-request fixed costs dominate",
		http: true,
		rate: 300,
		ops:  httpDocHotOps,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
}

// sizes are the input dimensions. The defaults keep one run's inputs,
// their DOM reference and two daemons well under a gigabyte on a
// shared two-core machine, and keep a CLI invocation short enough that
// a 25 s run makes about a hundred passes, so each op's fastest
// invocation is the best of about a hundred. Tests shrink them.
type sizes struct {
	LargeBytes    int // large-scan: one record per dataset
	RecordsBytes  int // records-scan: NDJSON bytes per dataset
	BodyRecords   int // http-ndjson: records per request body
	BodiesPerSet  int // http-ndjson: distinct bodies per dataset
	DocBytes      int // http-doc-hot: bytes per hot document
	SampleRecords int // layer probes that run per record use at most this many records per op
}

var defaultSizes = sizes{
	LargeBytes:    2 << 20,
	RecordsBytes:  2 << 20,
	BodyRecords:   64,
	BodiesPerSet:  4,
	DocBytes:      256 << 10,
	SampleRecords: 512,
}

type opKind int

const (
	opQuery opKind = iota // POST /query, or jsonski -q
	opMulti               // POST /multi
	opDoc                 // POST /doc?get=
)

// op is one distinct operation: a request shape with its body, or one
// CLI invocation with its input file, together with the DOM
// reference's answer to it.
type op struct {
	id      string
	dataset string
	kind    opKind
	paths   []string // JSONPath expressions: one for opQuery, several for opMulti
	get     string   // dot path for opDoc
	single  bool     // input is one JSON document rather than NDJSON records
	docs    [][]byte // evaluation units: the document, or the records
	input   []byte   // the bytes the front end receives
	file    string   // CLI workloads: input written here
	weight  float64  // share of the HTTP request mix

	wantCLI, wantHTTP digest
	matches           int64 // reference match count
}

func (o *op) bytes() int64 { return int64(len(o.input)) }

// digest identifies an output byte stream by length and FNV-1a hash.
type digest struct {
	N int64
	H uint64
}

func digestOf(b []byte) digest {
	h := fnv.New64a()
	h.Write(b)
	return digest{N: int64(len(b)), H: h.Sum64()}
}

// sortedLinesDigest digests b's lines in sorted order: /multi may
// interleave the set's matches within a record in any order.
func sortedLinesDigest(b []byte) digest {
	lines := bytes.SplitAfter(b, []byte("\n"))
	sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
	return digestOf(bytes.Join(lines, nil))
}

// ttPaths is the /multi set: ten paths over the tweet records.
var ttPaths = []string{
	"$.text", "$.id", "$.user.name", "$.user.screen_name", "$.user.followers_count",
	"$.en.urls[*].url", "$.en.hashtags[*].text", "$.retweet_count", "$.lang", "$.place.name",
}

// largePaths and recordPaths are on-demand lookups that exist in every
// generated document (or record) of their dataset at any size the
// benchmark uses: /doc requests in http-doc-hot, Navigator probes
// elsewhere.
var largePaths = map[string][]string{
	"tt":   {"[3].text", "[40].user.screen_name"},
	"bb":   {"pd[2].nm", "pd[30].upc"},
	"gmd":  {"[1].gid", "[12].status"},
	"nspl": {"mt.vw.co[5].nm", "dt[40][1]"},
	"wm":   {"it[4].nm", "it[50].salePrice"},
	"wp":   {"[3].id", "[30].lb.en.value"},
}

var recordPaths = map[string][]string{
	"tt":   {"user.screen_name", "text"},
	"bb":   {"sku", "cp[1].id"},
	"gmd":  {"gid", "rt[0].summary"},
	"nspl": {"[1][0]", "[3][2]"},
	"wm":   {"nm", "cat.l3.name"},
	"wp":   {"id", "lb.en.value"},
}

// dotToJSONPath turns a dot path into the JSONPath the DOM reference
// evaluates: "pd[2].nm" becomes $.pd[2].nm.
func dotToJSONPath(dot string) (string, error) {
	segs, err := jsonski.ParseDotPath(dot)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	b.WriteByte('$')
	for _, s := range segs {
		if _, err := strconv.Atoi(s); err == nil {
			fmt.Fprintf(&b, "[%s]", s)
		} else {
			fmt.Fprintf(&b, ".%s", s)
		}
	}
	return b.String(), nil
}

func datasetSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

func writeInput(dir, name string, data []byte) (string, error) {
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		return "", fmt.Errorf("writing input: %w", err)
	}
	return p, nil
}

func ndjson(recs [][]byte) []byte {
	var b bytes.Buffer
	for _, r := range recs {
		b.Write(r)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func largeScanOps(sz sizes, seed int64, dir string) ([]*op, error) {
	var ops []*op
	for i, ds := range gen.Names {
		doc, err := gen.Generate(ds, sz.LargeBytes, datasetSeed(seed, i))
		if err != nil {
			return nil, err
		}
		file, err := writeInput(dir, ds+".json", doc)
		if err != nil {
			return nil, err
		}
		for _, q := range queries.ForDataset(ds) {
			ops = append(ops, &op{
				id: q.ID, dataset: ds, kind: opQuery, paths: []string{q.Large},
				single: true, docs: [][]byte{doc}, input: doc, file: file,
			})
		}
	}
	return ops, finish(ops)
}

func recordsScanOps(sz sizes, seed int64, dir string) ([]*op, error) {
	var ops []*op
	for i, ds := range gen.Names {
		qs := smallQueries(ds)
		if len(qs) == 0 {
			continue
		}
		recs, err := gen.GenerateRecords(ds, sz.RecordsBytes, datasetSeed(seed, i))
		if err != nil {
			return nil, err
		}
		text := ndjson(recs)
		file, err := writeInput(dir, ds+".ndjson", text)
		if err != nil {
			return nil, err
		}
		for _, q := range qs {
			ops = append(ops, &op{
				id: q.ID, dataset: ds, kind: opQuery, paths: []string{q.Small},
				docs: recs, input: text, file: file,
			})
		}
	}
	return ops, finish(ops)
}

func smallQueries(ds string) []queries.Q {
	var out []queries.Q
	for _, q := range queries.ForDataset(ds) {
		if q.Small != "" {
			out = append(out, q)
		}
	}
	return out
}

// httpNDJSONOps: for every dataset with small-record queries, a few
// distinct 64-record bodies; each (query, body) pair is one /query
// shape, and each TT body is also one /multi shape over ttPaths.
func httpNDJSONOps(sz sizes, seed int64, _ string) ([]*op, error) {
	var queryOps, multiOps []*op
	for i, ds := range gen.Names {
		qs := smallQueries(ds)
		if len(qs) == 0 {
			continue
		}
		need := sz.BodyRecords * sz.BodiesPerSet
		var recs [][]byte
		for target := need * 600; len(recs) < need; target *= 2 {
			var err error
			if recs, err = gen.GenerateRecords(ds, target, datasetSeed(seed, i)); err != nil {
				return nil, err
			}
		}
		for b := 0; b < sz.BodiesPerSet; b++ {
			body := recs[b*sz.BodyRecords : (b+1)*sz.BodyRecords]
			text := ndjson(body)
			for _, q := range qs {
				queryOps = append(queryOps, &op{
					id: fmt.Sprintf("%s#%d", q.ID, b), dataset: ds, kind: opQuery,
					paths: []string{q.Small}, docs: body, input: text,
				})
			}
			if ds == "tt" {
				multiOps = append(multiOps, &op{
					id: fmt.Sprintf("multi-tt#%d", b), dataset: ds, kind: opMulti,
					paths: ttPaths, docs: body, input: text,
				})
			}
		}
	}
	for _, o := range queryOps {
		o.weight = 0.75 / float64(len(queryOps))
	}
	for _, o := range multiOps {
		o.weight = 0.25 / float64(len(multiOps))
	}
	ops := append(queryOps, multiOps...)
	return ops, finish(ops)
}

// httpDocHotOps: two documents each from tt, bb, gmd and wm; every
// document takes its dataset's two large-record queries as /query and
// its two lookups as /doc, half the mix each.
func httpDocHotOps(sz sizes, seed int64, _ string) ([]*op, error) {
	var queryOps, docOps []*op
	for j := 0; j < 2; j++ {
		for i, ds := range []string{"tt", "bb", "gmd", "wm"} {
			doc, err := gen.Generate(ds, sz.DocBytes, datasetSeed(seed, 10*j+i))
			if err != nil {
				return nil, err
			}
			for _, q := range queries.ForDataset(ds) {
				queryOps = append(queryOps, &op{
					id: fmt.Sprintf("%s@%s%d", q.ID, ds, j), dataset: ds, kind: opQuery,
					paths: []string{q.Large}, single: true, docs: [][]byte{doc}, input: doc,
				})
			}
			for _, p := range largePaths[ds] {
				docOps = append(docOps, &op{
					id: fmt.Sprintf("doc %s@%s%d", p, ds, j), dataset: ds, kind: opDoc,
					get: p, single: true, docs: [][]byte{doc}, input: doc,
				})
			}
		}
	}
	for _, o := range queryOps {
		o.weight = 0.5 / float64(len(queryOps))
	}
	for _, o := range docOps {
		o.weight = 0.5 / float64(len(docOps))
	}
	ops := append(queryOps, docOps...)
	return ops, finish(ops)
}

// finish computes each op's expected outputs with the DOM reference.
// An op whose path selects nothing in a /doc lookup is a workload bug,
// not a benchmark result, so it fails set-up.
func finish(ops []*op) error {
	for _, o := range ops {
		if err := o.reference(); err != nil {
			return fmt.Errorf("%s: %w", o.id, err)
		}
	}
	return nil
}

func (o *op) reference() error {
	cli, http, err := o.render()
	if err != nil {
		return err
	}
	o.expect(cli, http)
	return nil
}

// expect sets the outputs the front ends must produce.
func (o *op) expect(cli, http []byte) {
	o.wantCLI = digestOf(cli)
	o.wantHTTP = digestOf(http)
	if o.kind == opMulti {
		o.wantHTTP = sortedLinesDigest(http)
	}
}

// render evaluates the op with the DOM reference and renders what the
// CLI and jsonskid must print for it.
func (o *op) render() (cli, http []byte, err error) {
	paths := o.paths
	if o.kind == opDoc {
		p, err := dotToJSONPath(o.get)
		if err != nil {
			return nil, nil, err
		}
		paths = []string{p}
	}
	evs := make([]*domparser.Evaluator, len(paths))
	for i, p := range paths {
		ev, err := domparser.Compile(p)
		if err != nil {
			return nil, nil, err
		}
		evs[i] = ev
	}
	var cb, hb bytes.Buffer
	o.matches = 0
	for rec, doc := range o.docs {
		for qi, ev := range evs {
			_, err := ev.Run(doc, func(start, end int) {
				o.matches++
				v := doc[start:end]
				cb.Write(v)
				cb.WriteByte('\n')
				switch o.kind {
				case opQuery:
					fmt.Fprintf(&hb, `{"record":%d,"value":%s}`+"\n", rec, v)
				case opMulti:
					fmt.Fprintf(&hb, `{"record":%d,"query":%d,"value":%s}`+"\n", rec, qi, v)
				case opDoc:
					if o.matches == 1 {
						hb.Write(v)
						hb.WriteByte('\n')
					}
				}
			})
			if err != nil {
				return nil, nil, fmt.Errorf("DOM reference: %w", err)
			}
		}
	}
	if o.kind == opDoc && o.matches == 0 {
		return nil, nil, fmt.Errorf("lookup %q selects nothing", o.get)
	}
	return cb.Bytes(), hb.Bytes(), nil
}

// requestMix draws n operations by weight from a seeded generator, so
// the same seed replays the same request sequence. Ops without weights
// (the CLI workloads' operations sent to jsonskid) are drawn uniformly.
func requestMix(ops []*op, n int, seed int64) []*op {
	rng := rand.New(rand.NewSource(seed))
	cum := make([]float64, len(ops))
	total := 0.0
	for i, o := range ops {
		if o.weight > 0 {
			total += o.weight
		} else {
			total++
		}
		cum[i] = total
	}
	out := make([]*op, n)
	for i := range out {
		x := rng.Float64() * total
		out[i] = ops[sort.SearchFloat64s(cum, x)]
	}
	return out
}
