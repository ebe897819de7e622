package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"octgb/internal/obs"
	"octgb/internal/serve"
)

// requestDeadlineMS is sent with every request so the server's default
// deadline never interferes: a slow op is a slow sample, not a 504.
const requestDeadlineMS = 120_000

// shutdownGrace bounds the drain of an in-process server at close.
const shutdownGrace = 30 * time.Second

// newHTTPClient returns a keep-alive client with one idle connection per
// closed-loop caller, so no measured request pays a dial.
func newHTTPClient(p int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * p,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// call is one HTTP exchange as the caller timed it.
type call struct {
	status     int
	header     http.Header
	start      time.Time
	roundTrip  time.Duration // request written, response body read
	decode     time.Duration // response JSON decoded into out
	err        error
	failedWith string // status token of a non-200 answer
}

func (c *call) total() time.Duration { return c.roundTrip + c.decode }

// failure is the opRec.failed text of a call ("" when it succeeded).
func (c *call) failure() string {
	switch {
	case c.err != nil:
		return c.err.Error()
	case c.status != http.StatusOK:
		return fmt.Sprintf("HTTP %d %s", c.status, c.failedWith)
	}
	return ""
}

// stages are the harness-side stage spans of a call.
func (c *call) stages() []stage {
	return []stage{
		{"http.round_trip", c.start, c.roundTrip},
		{"client.decode", c.start.Add(c.roundTrip), c.decode},
	}
}

// do sends a pre-encoded body and decodes a 200 answer into out.
func do(cl *http.Client, method, url string, body []byte, out any) call {
	c := call{start: time.Now()}
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		c.err = err
		return c
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.Do(req)
	if err != nil {
		c.err = err
		c.roundTrip = time.Since(c.start)
		return c
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.roundTrip = time.Since(c.start)
	c.status, c.header = resp.StatusCode, resp.Header
	if err != nil {
		c.err = err
		return c
	}
	if resp.StatusCode != http.StatusOK {
		var e serve.ErrorResponse
		_ = json.Unmarshal(raw, &e) // the status alone already fails the op
		c.failedWith = e.Error + " " + e.Detail
		return c
	}
	t := time.Now()
	c.err = json.Unmarshal(raw, out)
	c.decode = time.Since(t)
	return c
}

// startServer boots one in-process serve.Server on a loopback port.
func startServer(workers int, ob *obs.Observer) (*serve.Server, error) {
	s := serve.New(serve.Config{Addr: "127.0.0.1:0", Workers: workers, Threads: 1, Observe: ob})
	if err := s.Start(); err != nil {
		return nil, err
	}
	return s, nil
}

func stopServer(s *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	_ = s.Shutdown(ctx) // a drain that times out leaves nothing the harness can act on
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("bench: encode request: " + err.Error()) // harness-built values only
	}
	return b
}

// timingsInto copies a response's server-side stage breakdown.
func (r *opRec) timingsInto(t serve.TimingsJSON) {
	r.queueMS, r.surfaceMS, r.prepareMS, r.evalMS = t.QueueMS, t.SurfaceMS, t.PrepareMS, t.EvalMS
}

// serveStageMetrics emits the medians of the response timings blocks and
// the share of the caller's latency they do not account for.
func serveStageMetrics(m *metricSet, recs []opRec) {
	var q, s, p, e, over []float64
	for i := range recs {
		r := &recs[i]
		if r.aux || r.failed != "" {
			continue
		}
		q, s, p, e = append(q, r.queueMS), append(s, r.surfaceMS), append(p, r.prepareMS), append(e, r.evalMS)
		over = append(over, ms(r.dur)-r.queueMS-r.surfaceMS-r.prepareMS-r.evalMS)
	}
	m.set("serve.queue_ms", "ms", median(q), len(q))
	m.set("serve.surface_ms", "ms", median(s), len(s))
	m.set("serve.prepare_ms", "ms", median(p), len(p))
	m.set("serve.eval_ms", "ms", median(e), len(e))
	m.set("serve.overhead_ms", "ms", median(over), len(over))
}

// codecMetrics times the two JSON hops of one request as the server pays
// them: decoding the request body into its wire type, and encoding the
// response.
func codecMetrics(m *metricSet, body []byte, decode func([]byte), response any, reps int) {
	var dec, enc []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		decode(body)
		dec = append(dec, ms(time.Since(t)))
		t = time.Now()
		mustJSON(response)
		enc = append(enc, 1e3*ms(time.Since(t)))
	}
	m.set("serve.body_kb", "kB", float64(len(body))/1e3, 1)
	m.set("serve.decode_ms", "ms", median(dec), len(dec))
	m.set("serve.encode_us", "us", median(enc), len(enc))
}
