package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// loadReports reads every run report under dir, keyed by its path
// relative to dir, so that runs of two sets pair up by name.
func loadReports(dir string) (map[string]report, error) {
	out := map[string]report{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".json") {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rep report
		if json.Unmarshal(b, &rep) != nil || rep.Workload == "" {
			return nil // not a run report
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		out[rel] = rep
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("no run reports under %s", dir)
	}
	return out, err
}

// series is one metric's values on one workload, in pairing order.
type series struct {
	workload string
	m        metric
	a, b     []float64
}

func allMetrics() []metric { return append(append([]metric(nil), endToEnd...), perLayer...) }

// collect groups report values by workload and metric; with b nil only
// a's values are gathered, otherwise only pairs present in both sets.
func collect(a, b map[string]report) []*series {
	keys := make([]string, 0, len(a))
	for k := range a {
		if _, ok := b[k]; ok || b == nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	byKey := map[string]*series{}
	var out []*series
	for _, m := range allMetrics() {
		for _, k := range keys {
			ra := a[k]
			va, ok := ra.Metrics[m.name]
			if !ok {
				continue
			}
			id := ra.Workload + "\x00" + m.name
			s := byKey[id]
			if s == nil {
				s = &series{workload: ra.Workload, m: m}
				byKey[id] = s
				out = append(out, s)
			}
			s.a = append(s.a, va.Value)
			if b != nil {
				s.b = append(s.b, b[k].Metrics[m.name].Value)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].workload < out[j].workload })
	return out
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// worse reports by how much b is worse than a, as a share of a.
func worse(m metric, a, b float64) float64 {
	if m.better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// summaryJSON writes one set of run reports as JSON: per workload and
// mode, each metric's median and quartiles over the runs. This is the
// form of bench/baseline.json.
func summaryJSON(w io.Writer, dir string) error {
	reps, err := loadReports(dir)
	if err != nil {
		return err
	}
	type stat struct {
		Unit   string  `json:"unit"`
		N      int     `json:"n"`
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
	}
	out := struct {
		Env       any                                   `json:"env"`
		Workloads map[string]map[string]map[string]stat `json:"workloads"`
	}{Workloads: map[string]map[string]map[string]stat{}}
	for _, mode := range []bool{false, true} {
		sub := map[string]report{}
		for k, r := range reps {
			if r.Traced == mode {
				sub[k] = r
				out.Env = r.Env
			}
		}
		for _, s := range collect(sub, nil) {
			q1, q2, q3 := quartiles(s.a)
			name := "untraced"
			if mode {
				name = "traced"
			}
			if out.Workloads[s.workload] == nil {
				out.Workloads[s.workload] = map[string]map[string]stat{}
			}
			if out.Workloads[s.workload][name] == nil {
				out.Workloads[s.workload][name] = map[string]stat{}
			}
			out.Workloads[s.workload][name][s.m.name] = stat{Unit: s.m.unit, N: len(s.a), Median: q2, Q1: q1, Q3: q3}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// compareDirs prints each metric's median and quartiles for one set of
// run reports, or for two sets the fraction of pairs the second won
// and a verdict per end-to-end metric. A metric whose spread in either
// set exceeds its bound is unresolved: the runs cannot tell a change
// of that size from noise.
func compareDirs(w io.Writer, dirs []string) error {
	if len(dirs) < 1 || len(dirs) > 2 {
		return errors.New("usage: -compare A [B] (directories of run reports)")
	}
	a, err := loadReports(dirs[0])
	if err != nil {
		return err
	}
	var b map[string]report
	if len(dirs) == 2 {
		if b, err = loadReports(dirs[1]); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	defer tw.Flush()
	if b == nil {
		fmt.Fprintln(tw, "workload\tmetric\tn\tmedian\tq1\tq3\tspread\tbound\t")
		for _, s := range collect(a, nil) {
			q1, q2, q3 := quartiles(s.a)
			bound, status := "-", ""
			if s.m.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", s.m.bound*100)
				if spread(s.a) > s.m.bound {
					status = "unresolved"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.1f%%\t%s\t%s\n",
				s.workload, s.m.name, len(s.a), q2, q1, q3, 100*spread(s.a), bound, status)
		}
		return nil
	}
	fmt.Fprintln(tw, "workload\tmetric\tpairs\tA median [q1, q3]\tB median [q1, q3]\tB worse by\tB wins\tverdict\t")
	for _, s := range collect(a, b) {
		a1, a2, a3 := quartiles(s.a)
		b1, b2, b3 := quartiles(s.b)
		wins := 0
		for i := range s.a {
			if worse(s.m, s.a[i], s.b[i]) < 0 {
				wins++
			}
		}
		verdict := "-"
		if s.m.bound > 0 {
			verdict = "within bound"
			switch {
			case spread(s.a) > s.m.bound || spread(s.b) > s.m.bound:
				verdict = "unresolved"
			case worse(s.m, a2, b2) > s.m.bound:
				verdict = "REGRESSED"
			case wins*10 >= 9*len(s.a) && -worse(s.m, a2, b2)*a2 > a3-a1:
				verdict = "improved"
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%s\n",
			s.workload, s.m.name, len(s.a), a2, a1, a3, b2, b1, b3, 100*worse(s.m, a2, b2), wins, len(s.a), verdict)
	}
	return nil
}
