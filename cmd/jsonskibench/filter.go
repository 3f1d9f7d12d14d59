package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"jsonski"
	"jsonski/internal/automaton"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/core"
	"jsonski/internal/jsonpath"
)

// filterRow is one selectivity point of the filter experiment: the same
// predicate evaluated under the skip-eligible probe plan, the
// full-parse probe plan, and the DOM baseline.
type filterRow struct {
	SelectivityPct float64 `json:"selectivity_pct"` // nominal, from the threshold
	Threshold      int     `json:"threshold"`
	Matches        int64   `json:"matches"`

	SkipMBs      float64 `json:"skip_mb_s"`
	SkipFFRatio  float64 `json:"skip_ff_ratio"`
	FullMBs      float64 `json:"fullparse_mb_s"`
	DomMBs       float64 `json:"dom_mb_s"`
	SkipOverDom  float64 `json:"skip_over_dom"`
	SkipOverFull float64 `json:"skip_over_fullparse"`
}

type filterSummary struct {
	// The planner's case: at low selectivity the skip-eligible plan
	// should beat both the full-parse plan and the DOM baseline, and
	// its fast-forward ratio should stay high — rejected candidates
	// are consumed by the same movement a skip would use.
	MinSkipFFRatio     float64 `json:"min_skip_ff_ratio"`
	SkipBeatsDomLowSel bool    `json:"skip_beats_dom_at_low_selectivity"`
	SkipBeatsFullParse bool    `json:"skip_beats_fullparse_everywhere"`
}

type filterReport struct {
	Bench      string        `json:"bench"`
	Schema     int           `json:"schema_version"`
	SizeBytes  int           `json:"size_bytes"`
	GoMaxProcs int           `json:"go_max_procs"`
	GoVersion  string        `json:"go_version"`
	Dataset    string        `json:"dataset"`
	SkipQuery  string        `json:"skip_query"`
	FullQuery  string        `json:"fullparse_query"`
	Rows       []filterRow   `json:"rows"`
	Summary    filterSummary `json:"summary"`
}

// filter sweeps filter selectivity over the WM product feed
// (salePrice is uniform in [0,800), so a `< T` threshold sets the
// match rate directly) and compares the two probe plans against the
// DOM baseline. The skip-eligible query embeds only relative singular
// chains; the full-parse variant adds an `@.stock.*` conjunct — always
// true, but the wildcard forces the DOM plan — so both plans face the
// same selectivity. With -json the table is also written as a
// machine-readable report (the BENCH_7.json trajectory).
func (h *harness) filter(jsonOut string) {
	fmt.Printf("\n== Filter selectivity: probe plans vs DOM baseline (wm, input %s) ==\n", fmtBytes(h.size))
	fmt.Printf("%-5s %-6s | %8s | %9s %6s | %9s | %9s | %7s %7s\n",
		"sel%", "thr", "matches", "skip", "ff%", "fullparse", "dom", "vs-dom", "vs-full")

	data := h.large("wm")
	rep := filterReport{
		Bench:      "filter",
		Schema:     1,
		SizeBytes:  h.size,
		GoMaxProcs: h.workers,
		GoVersion:  runtime.Version(),
		Dataset:    "wm",
		SkipQuery:  "$.it[?@.salePrice < T].itemId",
		FullQuery:  "$.it[?@.salePrice < T && @.stock.*].itemId",
	}
	mbs := func(d time.Duration) float64 {
		return float64(len(data)) / d.Seconds() / 1e6
	}
	points := []struct {
		pct float64
		thr int
	}{{0, 0}, {1, 8}, {10, 80}, {50, 400}, {100, 800}}
	for _, pt := range points {
		skipExpr := fmt.Sprintf("$.it[?@.salePrice < %d].itemId", pt.thr)
		fullExpr := fmt.Sprintf("$.it[?@.salePrice < %d && @.stock.*].itemId", pt.thr)

		skipQ := jsonski.MustCompile(skipExpr)
		fullQ := jsonski.MustCompile(fullExpr)
		domQ, err := domparser.Compile(skipExpr)
		must(err)

		matches, err := skipQ.Count(data)
		must(err)
		if n, err := fullQ.Count(data); err != nil || n != matches {
			panic(fmt.Sprintf("filter bench: plans disagree at thr %d: skip %d, full-parse %d (err %v)",
				pt.thr, matches, n, err))
		}

		tSkip := timeIt(func() { _, err := skipQ.Count(data); must(err) })
		tFull := timeIt(func() { _, err := fullQ.Count(data); must(err) })
		tDom := timeIt(func() { _, err := domQ.Count(data); must(err) })

		// FF ratio of the skip-eligible plan, measured like table6:
		// one telemetry-free engine run over the same input.
		e := core.NewEngine(automaton.New(jsonpath.MustParse(skipExpr)))
		st, err := e.Run(data, nil)
		must(err)

		r := filterRow{
			SelectivityPct: pt.pct,
			Threshold:      pt.thr,
			Matches:        matches,
			SkipMBs:        mbs(tSkip),
			SkipFFRatio:    st.FastForwardRatio(),
			FullMBs:        mbs(tFull),
			DomMBs:         mbs(tDom),
			SkipOverDom:    float64(tDom) / float64(tSkip),
			SkipOverFull:   float64(tFull) / float64(tSkip),
		}
		rep.Rows = append(rep.Rows, r)
		fmt.Printf("%-5.0f %-6d | %8d | %7.0fMB %5.1f%% | %7.0fMB | %7.0fMB | %6.2fx %6.2fx\n",
			pt.pct, pt.thr, matches, r.SkipMBs, r.SkipFFRatio*100,
			r.FullMBs, r.DomMBs, r.SkipOverDom, r.SkipOverFull)
	}

	s := filterSummary{MinSkipFFRatio: 1, SkipBeatsFullParse: true}
	for i, r := range rep.Rows {
		if r.SkipFFRatio < s.MinSkipFFRatio {
			s.MinSkipFFRatio = r.SkipFFRatio
		}
		if i == 0 {
			s.SkipBeatsDomLowSel = r.SkipOverDom > 1
		}
		if r.SkipOverFull <= 1 {
			s.SkipBeatsFullParse = false
		}
	}
	rep.Summary = s
	fmt.Printf("summary: min skip-plan FF ratio %.1f%%; skip beats DOM at 0%% selectivity: %t; beats full-parse everywhere: %t\n",
		s.MinSkipFFRatio*100, s.SkipBeatsDomLowSel, s.SkipBeatsFullParse)

	if jsonOut != "" {
		b, err := json.MarshalIndent(&rep, "", "  ")
		must(err)
		must(os.WriteFile(jsonOut, append(b, '\n'), 0o644))
		fmt.Printf("wrote %s\n", jsonOut)
	}
}
