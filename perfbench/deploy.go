package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"tpminer/internal/persist"
	"tpminer/internal/remote"
	"tpminer/internal/server"
)

// deployment is one tpmd under test: the server behind a loopback
// listener, its optional persist store and remote workers, and the
// benchmark's HTTP client.
type deployment struct {
	svc     *server.Server
	ts      *httptest.Server
	store   *persist.Store
	workers []*httptest.Server
	client  *http.Client
	base    string
}

// deployOptions are the deployment settings a workload may choose; every
// other Config field keeps tpmd's default.
type deployOptions struct {
	storeURL string // "" = in-memory; fsync stays at tpmd's default (always)
	workers  int    // in-process remote workers on loopback
}

func deploy(opt deployOptions) (*deployment, error) {
	d := &deployment{client: newClient()}
	var cfg server.Config
	if opt.storeURL != "" {
		st, err := persist.OpenURL(opt.storeURL, persist.Options{FsyncMode: persist.FsyncAlways})
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		d.store = st
		cfg.Persist = st
	}
	for i := 0; i < opt.workers; i++ {
		w := httptest.NewServer(remote.NewWorkerServer(remote.WorkerConfig{}).Handler())
		d.workers = append(d.workers, w)
		cfg.Workers = append(cfg.Workers, w.URL)
	}
	d.svc = server.NewWithConfig(nil, cfg)
	d.ts = httptest.NewServer(d.svc.Handler())
	d.base = d.ts.URL
	return d, nil
}

// close stops everything the deployment started, waits for it, and
// drops the deployment's references to it so that a collection frees
// it. Closing twice is a no-op.
func (d *deployment) close() {
	if d.svc == nil {
		return
	}
	d.client.CloseIdleConnections()
	d.ts.Close()
	d.svc.Close()
	for _, w := range d.workers {
		w.Close()
	}
	if d.store != nil {
		if err := d.store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: closing store: %v\n", err)
		}
	}
	d.svc, d.ts, d.store, d.workers = nil, nil, nil, nil
}

// heapShare measures the live heap a deployment holds: HeapAlloc after
// a full collection while it is up, minus the same once stop has closed
// it. Everything the benchmark itself holds — inputs, reference bodies,
// samples — is in both readings and cancels out.
func heapShare(stop func()) float64 {
	up := liveHeapMB()
	stop()
	return up - liveHeapMB()
}

// newClient allows at most two connections to the server, the load
// limit of every workload.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// reply is one finished exchange. ack is the time from due to response
// headers, done the time from due to the last body byte.
type reply struct {
	status int
	header http.Header
	body   []byte
	ack    time.Duration
	done   time.Duration
}

// call sends one request and reads the whole response. due is when the
// request was due to be sent; latencies are measured from it.
func (d *deployment) call(ctx context.Context, method, path, ctype string, body []byte, header map[string]string, due time.Time) (reply, error) {
	return d.callInto(ctx, nil, method, path, ctype, body, header, due)
}

// callInto is call, reading the response body into buf when buf is not
// nil: the reply's body then aliases buf and is valid until buf is
// reused. A closed loop that reads every body into its own buffer leaves
// no garbage per response, so the collections the server pays for are
// the server's own.
func (d *deployment) callInto(ctx context.Context, buf *bytes.Buffer, method, path, ctype string, body []byte, header map[string]string, due time.Time) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	ack := time.Since(due)
	var data []byte
	if buf != nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		data = buf.Bytes()
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: data, ack: ack, done: time.Since(due)}, nil
}

// must runs a set-up or check request and insists on the wanted status.
func (d *deployment) must(method, path, ctype string, body []byte, want int) ([]byte, error) {
	r, err := d.call(context.Background(), method, path, ctype, body, nil, time.Now())
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if r.status != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, r.status, want, truncate(r.body))
	}
	return r.body, nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// closedLoop runs clients goroutines, each sending its next request only
// after the previous one completed, until the phase's time is up. step
// performs one operation and returns false when the client has no more
// work.
func closedLoop(p *phase, clients int, dur time.Duration, step func(client int) bool) {
	p.start, p.dur = time.Now(), dur
	deadline := p.start.Add(dur)
	done := make(chan struct{}, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			for time.Now().Before(deadline) && step(c) {
			}
		}(c)
	}
	for c := 0; c < clients; c++ {
		<-done
	}
	p.elapsed = time.Since(p.start)
}
