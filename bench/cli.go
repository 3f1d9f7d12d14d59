package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"time"
)

// cliResult is one jsonski invocation as its user sees it.
type cliResult struct {
	wall   time.Duration // exec to exit
	rssMiB float64       // peak resident set of the child, when sampled
	ok     bool          // exit 0 and stdout equal to the DOM reference
	err    error
}

// runCLI executes the jsonski CLI on op's input file, digesting stdout
// as it streams so output of any size costs the bench no memory. With
// sampleRSS it also follows the child's resident-set high-water mark.
func runCLI(ctx context.Context, bin string, o *op, sampleRSS bool) cliResult {
	args := []string{"-q", o.paths[0], o.file}
	if !o.single {
		args = append([]string{"-records"}, args...)
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	// One invocation, one core: the paper's single-threaded setting. With
	// the default two Ps on a two-vCPU machine the child's GC workers
	// contend with the bench for the second vCPU, and invocation time
	// swung by a quarter between runs.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return cliResult{err: err}
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return cliResult{err: err}
	}
	var (
		peak     float64
		sampling = make(chan struct{})
		sampled  = make(chan struct{})
	)
	if sampleRSS {
		go func() {
			defer close(sampled)
			peak = followPeakRSS(cmd.Process.Pid, sampling)
		}()
	} else {
		close(sampled)
	}
	h := fnv.New64a()
	n, copyErr := io.Copy(h, stdout)
	close(sampling)
	<-sampled
	waitErr := cmd.Wait()
	res := cliResult{wall: time.Since(t0), rssMiB: peak}
	switch {
	case waitErr != nil:
		res.err = fmt.Errorf("%s: %w", o.id, waitErr)
	case copyErr != nil:
		res.err = fmt.Errorf("%s: reading stdout: %w", o.id, copyErr)
	case (digest{N: n, H: h.Sum64()}) != o.wantCLI:
		res.err = fmt.Errorf("%s: output differs from the DOM reference (%d bytes, want %d)", o.id, n, o.wantCLI.N)
	default:
		res.ok = true
	}
	return res
}

// followPeakRSS reads pid's VmHWM every millisecond until stop closes
// or the process's memory is gone, and returns the last reading in
// MiB. VmHWM never decreases, so the last reading taken before exit is
// the peak. (The child's rusage cannot serve: after a vfork-style
// spawn, Linux charges the parent's resident set to the child's
// maxrss at exec.)
func followPeakRSS(pid int, stop <-chan struct{}) float64 {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	var peak float64
	for {
		if v, err := procStatusMiB(pid, "VmHWM"); err == nil && v > peak {
			peak = v
		}
		select {
		case <-stop:
			return peak
		case <-t.C:
		}
	}
}

// measureCLI runs a CLI workload. Set-up is one serial pass over every
// distinct operation, repeated setupRuns times. Three untimed passes follow
// the children's resident sets; memory is the median invocation's
// peak. Then timed serial passes run until the run's time is spent.
//
// Each op's latency is its fastest timed invocation. On a shared host a
// neighbour slows some invocations and never speeds one up: over ten
// consecutive 20 s windows on the two-vCPU reference VM, a pass summed
// from per-op medians spread 22-38% (interquartile range over median),
// one summed from per-op minima 9-19% (bench/README.md). Throughput is
// a pass at those latencies; p50 and p90 are taken over the ops.
func measureCLI(ctx context.Context, r *runner, ops []*op) error {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		r.cliPass(ctx, ops, false)
		setups = append(setups, time.Since(t0).Seconds())
	}
	var rss []float64
	for i := 0; i < 3; i++ {
		for _, c := range r.cliPass(ctx, ops, true) {
			rss = append(rss, c.rssMiB)
		}
	}
	fastest := make([]float64, len(ops))
	for j := range fastest {
		fastest[j] = math.Inf(1)
	}
	deadline := time.Now().Add(r.cfg.duration())
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for j, c := range r.cliPass(ctx, ops, false) {
			fastest[j] = min(fastest[j], ms(c.wall))
		}
	}
	var passBytes int64
	var passMs float64
	for j, o := range ops {
		passBytes += o.bytes()
		passMs += fastest[j]
	}
	r.set("mb_s", float64(passBytes)/passMs/1e3)
	r.set("ops_s", float64(len(ops))/passMs*1e3)
	r.set("p50_ms", quantile(fastest, 0.50))
	r.set("p90_ms", quantile(fastest, 0.90))
	r.set("rss_mb", median(rss))
	r.set("setup_s", median(setups))
	return nil
}

// cliPass runs every op once, serially, and counts the outcomes.
func (r *runner) cliPass(ctx context.Context, ops []*op, sampleRSS bool) []cliResult {
	out := make([]cliResult, len(ops))
	for i, o := range ops {
		out[i] = runCLI(ctx, r.jsonski(), o, sampleRSS)
		r.count(out[i].ok, out[i].err)
	}
	return out
}
