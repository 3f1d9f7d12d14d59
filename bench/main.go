// Command bench is the jsonski perf ledger: one seeded benchmark that
// drives the real jsonski CLI and jsonskid daemon on generated inputs,
// checks every answer against the DOM reference, and reports
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash bench/run.sh --workload large-scan --seed 42 --seconds 25 --trace 0
//	bash bench/run.sh --workload http-ndjson --seed 42 --seconds 25 --trace 1 --out bench-runs/x
//	bash bench/run.sh --compare bench-runs/a bench-runs/b
//
// It prints one "workload metric value unit" line per metric, then one
// JSON object {"correct","attempted","failed","metrics"} as its last
// line. bench/README.md defines every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	repo    string // module root holding cmd/jsonski and cmd/jsonskid
	bin     string // directory holding the built jsonski and jsonskid
	work    string // working directory for inputs and trace files
	seed    int64
	seconds float64
	trace   bool
	sizes   sizes
	log     io.Writer
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// setupRuns is how often a run sets up before it measures; setup_s is the
// median. On the reference VM the median of fifteen daemon set-ups
// spread 16-19% over ten consecutive runs, the median of five 19-27%.
const setupRuns = 15

// runner carries one run's counters and results.
type runner struct {
	cfg       config
	w         workload
	spans     *spanLog
	attempted atomic.Int64
	failed    atomic.Int64
	broken    atomic.Bool // a checked invariant did not hold

	mu      sync.Mutex
	metrics map[string]float64
	budget  []budgetRow // traced runs only
	logged  int
}

func newRunner(cfg config, w workload) *runner {
	return &runner{cfg: cfg, w: w, spans: newSpanLog(cfg.seed), metrics: map[string]float64{}}
}

func (r *runner) jsonski() string  { return filepath.Join(r.cfg.bin, "jsonski") }
func (r *runner) jsonskid() string { return filepath.Join(r.cfg.bin, "jsonskid") }

func (r *runner) set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

// count records one attempted operation; a failure is a non-zero exit,
// a transport error, a non-200 status, or output that differs from the
// DOM reference. The first few failures are logged.
func (r *runner) count(ok bool, err error) {
	r.attempted.Add(1)
	if ok {
		return
	}
	r.failed.Add(1)
	r.logf("failure: %v", err)
}

func (r *runner) violation(err error) {
	r.broken.Store(true)
	r.logf("invariant: %v", err)
}

func (r *runner) logf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.logged < 10 && r.cfg.log != nil {
		fmt.Fprintf(r.cfg.log, "bench: "+format+"\n", args...)
	}
	r.logged++
}

// run generates the workload's inputs and measures it.
func (r *runner) run(ctx context.Context) error {
	ops, err := r.w.ops(r.cfg.sizes, r.cfg.seed, r.cfg.work)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	return r.measure(ctx, ops)
}

func (r *runner) measure(ctx context.Context, ops []*op) error {
	switch {
	case r.cfg.trace:
		return measureTraced(ctx, r, ops)
	case r.w.http:
		return measureHTTP(ctx, r, ops)
	default:
		return measureCLI(ctx, r, ops)
	}
}

// metricValue and result are the run's last output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// declared is the metric set the run must report.
func (r *runner) declared() []metric {
	if r.cfg.trace {
		return perLayer
	}
	return endToEnd
}

// result assembles the run's outcome. A declared metric the run did not
// produce is an error in the benchmark, not a measurement.
func (r *runner) result() (result, error) {
	res := result{
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0 && !r.broken.Load()
	for _, m := range r.declared() {
		v, ok := r.metrics[m.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

// writeResult prints the metric lines and the final JSON line.
func writeResult(w io.Writer, workload string, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%s %s %v %s\n", workload, n, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// report is the file -out writes: the result plus what it ran on.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Seconds  float64 `json:"seconds"`
	Env      struct {
		GitRevision string `json:"git_revision"`
		GoVersion   string `json:"go_version"`
		GOMAXPROCS  int    `json:"gomaxprocs"`
		CPU         string `json:"cpu"`
		// StealPct is the share of CPU time the hypervisor gave to
		// other guests during the run: on a shared host, the first
		// thing to check when two runs of one commit disagree.
		StealPct float64 `json:"steal_pct"`
	} `json:"env"`
	result
	Budget []budgetRow `json:"budget,omitempty"`
}

func writeReport(dir string, r *runner, res result, stealPct float64) error {
	cfg, workload := r.cfg, r.w.name
	rep := report{Workload: workload, Seed: cfg.seed, Traced: cfg.trace, Seconds: cfg.seconds, result: res, Budget: r.budget}
	rep.Env.GitRevision = gitRevision(cfg.repo)
	rep.Env.GoVersion = runtime.Version()
	rep.Env.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Env.CPU = cpuModel()
	rep.Env.StealPct = stealPct
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, reportName(workload, cfg.trace, cfg.seed)), append(b, '\n'), 0o644)
}

func reportName(workload string, trace bool, seed int64) string {
	mode := "untraced"
	if trace {
		mode = "traced"
	}
	return fmt.Sprintf("%s-%s-seed%d.json", workload, mode, seed)
}

func gitRevision(repo string) string {
	out, err := exec.Command("git", "-C", repo, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuTicks reads the machine's total and steal CPU time from the first
// line of /proc/stat, in clock ticks; zeros where it is unavailable.
func cpuTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range strings.Fields(line)[1:] {
		if i > 7 {
			break
		}
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// buildBinaries compiles the CLI and the daemon from the module at repo.
func buildBinaries(ctx context.Context, repo, bin string) error {
	for _, p := range []string{"go.mod", "cmd/jsonski", "cmd/jsonskid"} {
		if _, err := os.Stat(filepath.Join(repo, p)); err != nil {
			return fmt.Errorf("%s is not the jsonski repository root: %w", repo, err)
		}
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", abs+string(filepath.Separator), "./cmd/jsonski", "./cmd/jsonskid")
	cmd.Dir = repo
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+workloadNames())
		seed         = flag.Int64("seed", 42, "input and traffic seed")
		seconds      = flag.Float64("seconds", 25, "measured seconds per run")
		trace        = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		out          = flag.String("out", "", "also write the run's report (with git revision, Go version, GOMAXPROCS and CPU) into this directory")
		repo         = flag.String("repo", ".", "jsonski repository root")
		compare      = flag.Bool("compare", false, "compare report directories A [B] instead of running")
		summary      = flag.String("summary", "", "print the median and quartiles of every metric in this report directory as JSON (the form of bench/baseline.json)")
	)
	flag.Parse()
	if *summary != "" {
		if err := summaryJSON(os.Stdout, *summary); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		return
	}
	if *compare {
		if err := compareDirs(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		return
	}
	if err := runMain(*workloadName, *seed, *seconds, *trace, *out, *repo); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func runMain(name string, seed int64, seconds float64, trace int, out, repo string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	build := filepath.Join(repo, ".bench_build")
	bin := filepath.Join(build, "bin")
	if err := buildBinaries(ctx, repo, bin); err != nil {
		return err
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg := config{
		repo: repo, bin: bin, work: work, seed: seed, seconds: seconds,
		trace: trace == 1, sizes: defaultSizes, log: os.Stderr,
	}
	r := newRunner(cfg, w)
	total0, steal0 := cpuTicks()
	if err := r.run(ctx); err != nil {
		return err
	}
	total1, steal1 := cpuTicks()
	res, err := r.result()
	if err != nil {
		return err
	}
	if cfg.trace {
		spans := filepath.Join(build, "spans", strings.TrimSuffix(reportName(w.name, true, seed), ".json")+".ndjson")
		if out != "" {
			spans = filepath.Join(out, filepath.Base(spans))
		}
		if err := r.spans.write(spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if out != "" {
		stealPct := 100 * ratio(float64(steal1-steal0), float64(total1-total0))
		if err := writeReport(out, r, res, stealPct); err != nil {
			return err
		}
	}
	return writeResult(os.Stdout, w.name, res)
}
