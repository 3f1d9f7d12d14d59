package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one jsonskid process listening on a loopback port it chose.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	stderr chan struct{} // closed once the stderr reader has seen EOF
}

// startDaemon execs jsonskid on an ephemeral port with two workers and
// logging off, parses the port from its "listening on" line, and waits
// for /readyz to answer 200.
func startDaemon(ctx context.Context, bin string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-log-level", "off", "-workers", "2"}, extra...)
	cmd := exec.Command(bin, args...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderr: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting jsonskid: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.stderr)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
		// Keep draining so the daemon can never block on a full pipe.
		_, _ = io.Copy(io.Discard, pipe)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.stderr:
		d.stop()
		return nil, errors.New("jsonskid exited before listening")
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, errors.New("jsonskid did not report a listening address within 10s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	if err := d.waitReady(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitReady(ctx context.Context) error {
	c := &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := c.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("jsonskid /readyz did not return 200 within 10s")
}

// stop shuts the daemon down gracefully (SIGTERM, which also makes a
// tracing daemon flush its span file), killing it after five seconds,
// and waits for it to exit.
func (d *daemon) stop() {
	if d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		<-d.stderr
		_ = d.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
	}
}

// rssMiB reads the daemon's current resident set.
func (d *daemon) rssMiB() (float64, error) {
	return procStatusMiB(d.cmd.Process.Pid, "VmRSS")
}

// procStatusMiB reads one kB-valued line (VmRSS, VmHWM) of a process's
// /proc status file, in MiB.
func procStatusMiB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, pid)
}

// metricsJSON is the part of jsonskid's GET /metrics document the
// bench reads.
type metricsJSON struct {
	IndexCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"index_cache"`
	Workers struct {
		QueueDepth int `json:"queue_depth"`
	} `json:"workers"`
	Trace struct {
		SpansDropped  int64 `json:"spans_dropped"`
		SpansExported int64 `json:"spans_exported"`
	} `json:"trace"`
}

func getJSON(c *http.Client, u string, v any) error {
	resp, err := c.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// client is the load generator's HTTP side: at most two connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one request's outcome.
type reply struct {
	ok          bool
	err         error
	traceparent string // the daemon's root span context, when tracing
}

// do sends o's request and checks the whole response against the DOM
// reference. buf is the caller's reusable response buffer.
func (c *client) do(ctx context.Context, o *op, buf *bytes.Buffer) reply {
	var u string
	switch o.kind {
	case opQuery:
		u = c.base + "/query?path=" + url.QueryEscape(o.paths[0])
	case opMulti:
		q := url.Values{"path": o.paths}
		u = c.base + "/multi?" + q.Encode()
	case opDoc:
		u = c.base + "/doc?get=" + url.QueryEscape(o.get)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(o.input))
	if err != nil {
		return reply{err: err}
	}
	if o.single {
		req.Header.Set("Content-Type", "application/json")
	} else {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: fmt.Errorf("%s: %w", o.id, err)}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rep := reply{traceparent: resp.Header.Get("traceparent")}
	got := digestOf(buf.Bytes())
	if o.kind == opMulti {
		got = sortedLinesDigest(buf.Bytes())
	}
	switch {
	case err != nil:
		rep.err = fmt.Errorf("%s: reading response: %w", o.id, err)
	case resp.StatusCode != http.StatusOK:
		rep.err = fmt.Errorf("%s: status %s: %.200s", o.id, resp.Status, buf.Bytes())
	case got != o.wantHTTP:
		rep.err = fmt.Errorf("%s: response differs from the DOM reference (%d bytes, want %d): %.200s", o.id, got.N, o.wantHTTP.N, buf.Bytes())
	default:
		rep.ok = true
	}
	return rep
}
