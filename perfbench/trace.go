package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one
// benchmark operation share Req; Parent names the span that caused it
// (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

// record stores a finished span.
func (t *tracer) record(name string, id, parent, req int64, start, end time.Time) {
	s := span{Name: name, ID: id, Parent: parent, Req: req, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, each span's self time: its duration
// minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string][]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur()-covered(s, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// byName returns the spans with the given name.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMs returns the spans' durations in milliseconds.
func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

// The benchmark passes its span identity across HTTP hops in these
// headers, and within a process in the request context.
const (
	headerSpan = "X-Perfbench-Span"
	headerReq  = "X-Perfbench-Req"
)

type spanKey struct{}

// spanRef is the caller's span, carried in a context.
type spanRef struct{ id, req int64 }

func withSpan(ctx context.Context, id, req int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, req})
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// tracedHandler wraps h so every request whose caller sent span headers
// records a span named prefix+path, parented to the caller's span, and
// makes that span the parent of whatever the handler calls out to.
func (t *tracer) tracedHandler(prefix string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(headerSpan), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(headerReq), 10, 64)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		id := t.newID()
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id, req)))
		t.record(prefix+r.URL.Path, id, parent, req, start, time.Now())
	})
}

// tracedTransport records a span per outgoing request made under a
// traced context and forwards the span identity in headers.
type tracedTransport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := spanFrom(r.Context())
	if !ok {
		return tt.base.RoundTrip(r)
	}
	id := tt.t.newID()
	r = r.Clone(r.Context())
	r.Header.Set(headerSpan, strconv.FormatInt(id, 10))
	r.Header.Set(headerReq, strconv.FormatInt(ref.req, 10))
	start := time.Now()
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		tt.t.record(tt.name+r.URL.Path, id, ref.id, ref.req, start, time.Now())
		return nil, err
	}
	// The round trip ends when the caller has read the body.
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		tt.t.record(tt.name+r.URL.Path, id, ref.id, ref.req, start, time.Now())
	}}
	return resp, nil
}

// spanBody closes a span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
