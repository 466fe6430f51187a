package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from the benchmark's own code only: around
// each timed call into a layer and in the HTTP middleware and client
// transports wrapped around the layers' public handlers. Spans of one
// request share a request id; the parent id links a span to the span that
// caused it, across HTTP hops through the two headers below.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

// span is one timed interval. Times are nanoseconds since the run began.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Wait is how long the work waited before Start: for open-loop
	// requests, the time from the due time to the send.
	Wait int64 `json:"wait_ns,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A tracer that is not
// enabled records nothing and its middleware is the bare handler; an
// enabled one records only while active, so a traced run can also measure
// a stretch with recording off and report the tracing overhead.
type tracer struct {
	enabled bool
	on      atomic.Bool
	t0      time.Time
	next    atomic.Uint64
	mu      sync.Mutex
	spans   []span
}

func newTracer(enabled bool) *tracer {
	t := &tracer{enabled: enabled, t0: time.Now()}
	t.on.Store(enabled)
	return t
}

func (t *tracer) active() bool { return t.on.Load() }

func (t *tracer) id() uint64 {
	if !t.active() {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

func (t *tracer) record(sp span) {
	if !t.active() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// interval records a span for [start, end].
func (t *tracer) interval(name string, id, parent, req uint64, start, end time.Time) {
	if !t.active() {
		return
	}
	t.record(span{ID: id, Parent: parent, Req: req, Name: name, Start: t.ns(start), End: t.ns(end)})
}

// timed runs fn under a new span named name and returns its duration. The
// duration is measured whether or not tracing is on.
func (t *tracer) timed(name string, parent uint64, fn func(id uint64) error) (time.Duration, error) {
	id := t.id()
	start := time.Now()
	err := fn(id)
	end := time.Now()
	t.interval(name, id, parent, 0, start, end)
	return end.Sub(start), err
}

type spanKey struct{}

// spanCtx is the span a request is running under, carried in its context
// so client transports can name their parent.
type spanCtx struct{ id, req uint64 }

func withSpan(ctx context.Context, sc spanCtx) context.Context {
	return context.WithValue(ctx, spanKey{}, sc)
}

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}

func headerID(r *http.Request, name string) uint64 {
	v, _ := strconv.ParseUint(r.Header.Get(name), 10, 64)
	return v
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// hopStats counts what one wrapped handler served.
type hopStats struct {
	mu     sync.Mutex
	dur    map[string]*samples // span name -> durations in ms
	status map[int]int
}

func newHopStats() *hopStats {
	return &hopStats{dur: make(map[string]*samples), status: make(map[int]int)}
}

func (h *hopStats) observe(name string, code int, d time.Duration) {
	h.mu.Lock()
	s := h.dur[name]
	if s == nil {
		s = new(samples)
		h.dur[name] = s
	}
	s.addDur(d, time.Millisecond)
	h.status[code]++
	h.mu.Unlock()
}

func (h *hopStats) durations(name string) samples {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.dur[name]; s != nil {
		return append(samples(nil), (*s)...)
	}
	return nil
}

func (h *hopStats) count(code int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.status[code]
}

// wrap is the benchmark's timing middleware around a layer's public
// handler. name picks the span name per request. Without tracing it
// returns h itself, so untraced runs measure the handlers bare.
func (t *tracer) wrap(h http.Handler, name func(*http.Request) string, st *hopStats) http.Handler {
	if !t.enabled {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() {
			h.ServeHTTP(w, r)
			return
		}
		sc := spanCtx{id: t.id(), req: headerID(r, hdrReq)}
		parent := headerID(r, hdrParent)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r.WithContext(withSpan(r.Context(), sc)))
		end := time.Now()
		n := name(r)
		t.interval(n, sc.id, parent, sc.req, start, end)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		st.observe(n, code, end.Sub(start))
	})
}

// transport is the client side of a hop: it names the calling span as
// parent on the outgoing request and records a span until the response
// headers arrive. onCall sees every request with its caller's span.
type transport struct {
	t      *tracer
	name   string
	base   http.RoundTripper
	onCall func(r *http.Request, caller spanCtx)
}

func (rt *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !rt.t.active() {
		return rt.base.RoundTrip(r)
	}
	caller := spanFrom(r.Context())
	if rt.onCall != nil {
		rt.onCall(r, caller)
	}
	id := rt.t.id()
	r2 := r.Clone(r.Context())
	r2.Header.Set(hdrReq, strconv.FormatUint(caller.req, 10))
	r2.Header.Set(hdrParent, strconv.FormatUint(id, 10))
	start := time.Now()
	resp, err := rt.base.RoundTrip(r2)
	rt.t.interval(rt.name, id, caller.id, caller.req, start, time.Now())
	return resp, err
}

// layerSummary is one span name's share of the traced run.
type layerSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	WaitMs  float64 `json:"wait_ms"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
	SelfP50 float64 `json:"self_p50_ms"`
	SelfP99 float64 `json:"self_p99_ms"`
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover, keyed by span id.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			a, b := max(k.Start, cur), min(k.End, s.End)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

func summarize(spans []span) []layerSummary {
	self := selfTimes(spans)
	type acc struct {
		n           int
		tot, sf, wt float64
		d, s        samples
	}
	by := make(map[string]*acc)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		d, sf := float64(s.dur())/1e6, float64(self[s.ID])/1e6
		a.n++
		a.tot += d
		a.sf += sf
		a.wt += float64(s.Wait) / 1e6
		a.d.add(d)
		a.s.add(sf)
	}
	out := make([]layerSummary, 0, len(by))
	for name, a := range by {
		out = append(out, layerSummary{
			Name: name, Count: a.n, TotalMs: a.tot, SelfMs: a.sf, WaitMs: a.wt,
			P50Ms: a.d.median(), P99Ms: a.d.pct(0.99),
			SelfP50: a.s.median(), SelfP99: a.s.pct(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
