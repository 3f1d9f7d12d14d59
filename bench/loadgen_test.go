package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStall guards against coordinated omission: the
// server stalls once for 200 ms with every handler blocked, and the
// requests that fell due during the stall must carry it in their
// due-time latency, with the generator's lateness reporting it too.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var (
		mu    sync.Mutex // held through the stall, so both connections wait
		calls atomic.Int64
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if calls.Add(1) == 50 {
			time.Sleep(stall)
		}
		mu.Unlock()
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	hc := &http.Client{Transport: &http.Transport{Proxy: nil, MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	defer hc.CloseIdleConnections()

	const rate = 500.0
	due := poissonSchedule(rate, time.Second, 1)
	res := openLoop(context.Background(), due, 2, func(int) {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	})

	var worst float64
	delayed := 0
	for i := range res.due {
		l := ms(res.done[i] - res.due[i])
		worst = max(worst, l)
		if l >= 50 {
			delayed++
		}
	}
	if worst < ms(stall)*0.9 {
		t.Errorf("worst due-time latency %.1f ms, want at least the %v stall", worst, stall)
	}
	// At 500/s about 75 requests fall due in the stall's first 150 ms;
	// each must have waited at least 50 ms.
	if delayed < 40 {
		t.Errorf("%d requests waited >= 50 ms, want the ~75 queued behind the stall", delayed)
	}
	if late := quantile(res.lateMs(), 0.99); late < 100 {
		t.Errorf("generator lateness p99 %.1f ms, want it to show the stall", late)
	}
	if res.backlogMax < 20 {
		t.Errorf("backlog peaked at %d, want the requests queued behind the stall", res.backlogMax)
	}
}
