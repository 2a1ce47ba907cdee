package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// request is one scheduled HTTP call of an open-loop run.
type request struct {
	kind string // "query", "add" or "join": the latency class
	path string
	body []byte
}

// outcome is what one request got back. lat runs from the request's
// due time, so a stall also charges the requests queued behind it.
type outcome struct {
	lat    time.Duration
	status int
	body   []byte
	header http.Header
	err    error
	traced bool
}

// openLoop sends requests on a fixed schedule — request i is due at
// i/rate after the start — whether or not earlier ones have answered.
// At most senders requests are in flight, each on its own connection;
// due requests beyond that wait in the schedule, and the wait counts in
// their latency.
type openLoop struct {
	base    string
	rate    float64
	senders int
	tr      *tracer // when set, every odd-numbered request is traced
	client  *http.Client
	lateMax time.Duration
}

func newOpenLoop(base string, rate float64, senders int, tr *tracer) *openLoop {
	return &openLoop{base: base, rate: rate, senders: senders, tr: tr, client: newClient(senders, nil)}
}

// newClient returns a client holding at most conns connections.
func newClient(conns int, wrap func(http.RoundTripper) http.RoundTripper) *http.Client {
	var rt http.RoundTripper = &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	if wrap != nil {
		rt = wrap(rt)
	}
	return &http.Client{Transport: rt, Timeout: 60 * time.Second}
}

// run sends every request and returns the outcomes in schedule order.
func (g *openLoop) run(reqs []request) []outcome {
	outs := make([]outcome, len(reqs))
	// Sized to the number of sends: the dispatcher never blocks, so its
	// lateness measures only its own timer slack.
	queue := make(chan int, len(reqs))
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / g.rate * float64(time.Second))) }
	var wg sync.WaitGroup
	for s := 0; s < g.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				outs[i] = g.send(i, reqs[i])
				outs[i].lat = time.Since(due(i))
			}
		}()
	}
	for i := range reqs {
		d := due(i)
		if wait := time.Until(d); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(d); late > g.lateMax {
			g.lateMax = late
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	g.client.CloseIdleConnections()
	return outs
}

// closedLoop sends the requests in order from senders connections,
// each sender starting the next request as soon as its previous one is
// answered, until d has passed. It returns how many requests were
// answered 200 within d and their latencies in ms.
func closedLoop(base string, reqs []request, senders int, d time.Duration) (int, []float64) {
	g := &openLoop{base: base, senders: senders, client: newClient(senders, nil)}
	defer g.client.CloseIdleConnections()
	var next atomic.Int64
	var mu sync.Mutex
	var lat []float64
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				out := g.send(i, reqs[i])
				if out.err == nil && out.status == http.StatusOK && time.Now().Before(deadline) {
					mu.Lock()
					lat = append(lat, ms(time.Since(t0)))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return len(lat), lat
}

// send makes one call; odd-numbered calls of a traced run record a
// client span and pass its identity to the server.
func (g *openLoop) send(i int, rq request) outcome {
	traced := g.tr != nil && i%2 == 1
	hr, err := http.NewRequest(http.MethodPost, g.base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return outcome{err: err}
	}
	hr.Header.Set("Content-Type", "application/json")
	var id int64
	if traced {
		id = g.tr.newID()
		hr.Header.Set(headerSpan, strconv.FormatInt(id, 10))
		hr.Header.Set(headerReq, strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	out := call(g.client, hr)
	if traced {
		g.tr.record("client/"+rq.kind, id, 0, id, t0, time.Now())
	}
	out.traced = traced
	return out
}

// call performs a request and reads the whole answer.
func call(c *http.Client, hr *http.Request) outcome {
	resp, err := c.Do(hr)
	if err != nil {
		return outcome{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; nothing to lose
	return outcome{status: resp.StatusCode, body: body, header: resp.Header, err: err}
}

// postJSON sends one JSON request outside the schedule.
func postJSON(c *http.Client, url string, v any) outcome {
	body, err := json.Marshal(v)
	if err != nil {
		return outcome{err: err}
	}
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	hr.Header.Set("Content-Type", "application/json")
	return call(c, hr)
}

// getJSON fetches url and decodes its JSON answer into v.
func getJSON(c *http.Client, url string, v any) error {
	hr, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	out := call(c, hr)
	if out.err != nil {
		return out.err
	}
	if out.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, out.status, out.body)
	}
	return json.Unmarshal(out.body, v)
}

// mustJSON encodes a request body the benchmark built itself.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain slices and maps of strings are encoded
	}
	return b
}

// latencies splits the outcomes' latencies by request kind, in ms.
func latencies(reqs []request, outs []outcome, keep func(outcome) bool) map[string][]float64 {
	m := map[string][]float64{}
	for i, o := range outs {
		if keep(o) {
			m[reqs[i].kind] = append(m[reqs[i].kind], ms(o.lat))
			m[""] = append(m[""], ms(o.lat))
		}
	}
	return m
}

// listen serves h on a loopback port and returns its base URL and a
// function that shuts the server down and waits for it.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	stop := func() {
		_ = hs.Close() // drops idle keep-alive connections; nothing to persist
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}
