package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/netip"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cellspot/internal/cellmap"
	"cellspot/internal/demand"
	"cellspot/internal/netaddr"
)

// addrSource draws client addresses. Both sources weight blocks by their
// DEMAND share, as a CDN's client population is; most draws miss the
// cellular map, as real clients do.
type addrSource interface {
	draw(rng *rand.Rand) netip.Addr
}

// demandDraw picks a block with probability proportional to its DU and a
// uniformly random host inside it.
type demandDraw struct {
	blocks []netaddr.Block
	cum    []float64
}

func newDemandDraw(ds *demand.Dataset) *demandDraw {
	d := &demandDraw{}
	total := 0.0
	ds.Each(func(b netaddr.Block, du float64) {
		if du > 0 {
			total += du
			d.blocks = append(d.blocks, b)
			d.cum = append(d.cum, total)
		}
	})
	return d
}

func (d *demandDraw) draw(rng *rand.Rand) netip.Addr {
	u := rng.Float64() * d.cum[len(d.cum)-1]
	i := sort.SearchFloat64s(d.cum, u)
	if i == len(d.blocks) {
		i--
	}
	return d.blocks[i].HostAddr(rng.Uint64())
}

// zipfSource is a fixed population of n demand-weighted client addresses
// whose popularity follows Zipf(s) over their rank.
type zipfSource struct {
	addrs []netip.Addr
	z     *rand.Zipf
}

// newZipfSource draws the population from rng and binds the rank
// generator to rng too, so schedules drawn from it stay a pure function of
// the seed.
func newZipfSource(d *demandDraw, n int, s float64, rng *rand.Rand) *zipfSource {
	p := &zipfSource{addrs: make([]netip.Addr, n)}
	for i := range p.addrs {
		p.addrs[i] = d.draw(rng)
	}
	p.z = rand.NewZipf(rng, s, 1, uint64(n-1))
	return p
}

// draw ignores rng: the rank generator already draws from the stream the
// source was built on.
func (p *zipfSource) draw(*rand.Rand) netip.Addr {
	return p.addrs[p.z.Uint64()]
}

type reqKind uint8

const (
	kSingle reqKind = iota
	kBatch
	kGen // single lookup addressed to a retained generation
)

func (k reqKind) String() string {
	return [...]string{"single", "batch", "gen"}[k]
}

// lookupReq is one scheduled request with its encoded form.
type lookupReq struct {
	due   time.Duration // offset from the phase start (open loop)
	kind  reqKind
	addrs []netip.Addr
	back  int    // kGen: how many generations behind the newest
	path  string // GET path and query, without gen
	body  []byte // POST body for kBatch
}

type mix struct {
	batch, gen float64
}

// schedule draws n requests. rate > 0 spaces them as Poisson arrivals;
// rate 0 leaves every due time at zero (closed loop).
func schedule(rng *rand.Rand, src addrSource, n int, rate float64, m mix, batch int) []lookupReq {
	reqs := make([]lookupReq, n)
	var t float64
	for i := range reqs {
		r := &reqs[i]
		if rate > 0 {
			t += rng.ExpFloat64() / rate
			r.due = time.Duration(t * float64(time.Second))
		}
		u := rng.Float64()
		switch {
		case u < m.batch:
			r.kind = kBatch
			r.addrs = make([]netip.Addr, batch)
			ips := make([]string, batch)
			for j := range r.addrs {
				r.addrs[j] = src.draw(rng)
				ips[j] = r.addrs[j].String()
			}
			r.body, _ = json.Marshal(cellmap.BatchRequest{IPs: ips})
			r.path = "/v1/lookup/batch"
		case u < m.batch+m.gen:
			r.kind = kGen
			r.back = 1 + rng.IntN(3)
			r.addrs = []netip.Addr{src.draw(rng)}
			r.path = "/v1/lookup?ip=" + url.QueryEscape(r.addrs[0].String())
		default:
			r.kind = kSingle
			r.addrs = []netip.Addr{src.draw(rng)}
			r.path = "/v1/lookup?ip=" + url.QueryEscape(r.addrs[0].String())
		}
	}
	return reqs
}

// hashSchedule digests a schedule's due times and encoded requests; two
// runs with one seed must produce the same digest.
func hashSchedule(h io.Writer, reqs []lookupReq) {
	var b [8]byte
	for i := range reqs {
		binary.LittleEndian.PutUint64(b[:], uint64(reqs[i].due))
		h.Write(b[:])
		h.Write([]byte{byte(reqs[i].kind), byte(reqs[i].back)})
		io.WriteString(h, reqs[i].path)
		h.Write(reqs[i].body)
	}
}

func scheduleDigest(parts ...[]lookupReq) string {
	h := sha256.New()
	for _, p := range parts {
		hashSchedule(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// lookupRes is what one request produced.
type lookupRes struct {
	req    *lookupReq
	gen    uint64 // kGen: the generation asked for
	due    time.Time
	sent   time.Time
	done   time.Time
	status int
	body   []byte
	err    error
}

func (r *lookupRes) latency(openLoop bool) time.Duration {
	if openLoop {
		return r.done.Sub(r.due)
	}
	return r.done.Sub(r.sent)
}

// lookupClient sends lookups to the gateway over at most conns
// connections.
type lookupClient struct {
	base string
	hc   *http.Client
	tr   *tracer
	// maxGen is the newest generation any current-map answer named.
	maxGen atomic.Uint64
}

func newLookupClient(base string, conns int, tr *tracer) *lookupClient {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &lookupClient{base: base, hc: &http.Client{Transport: t, Timeout: 10 * time.Second}, tr: tr}
}

func (c *lookupClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole answer.
func (c *lookupClient) do(ctx context.Context, res *lookupRes) {
	r := res.req
	var hr *http.Request
	var err error
	switch r.kind {
	case kBatch:
		hr, err = http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.path, bytes.NewReader(r.body))
		if err == nil {
			hr.Header.Set("Content-Type", "application/json")
		}
	case kGen:
		hr, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+r.path+"&gen="+strconv.FormatUint(res.gen, 10), nil)
	default:
		hr, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+r.path, nil)
	}
	if err != nil {
		res.err = err
		return
	}
	id := c.tr.id()
	if id != 0 {
		hr.Header.Set(hdrReq, strconv.FormatUint(id, 10))
		hr.Header.Set(hdrParent, strconv.FormatUint(id, 10))
	}
	res.sent = time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		res.err = err
		res.done = time.Now()
		return
	}
	res.body, res.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	res.done = time.Now()
	res.status = resp.StatusCode
	if res.status == http.StatusOK && r.kind != kGen {
		if g := answerGen(res.body); g > c.maxGen.Load() {
			c.maxGen.Store(g)
		}
	}
	if id != 0 {
		sp := span{ID: id, Req: id, Name: "client." + r.kind.String(), Start: c.tr.ns(res.sent), End: c.tr.ns(res.done)}
		if !res.due.IsZero() {
			sp.Wait = res.sent.Sub(res.due).Nanoseconds()
		}
		c.tr.record(sp)
	}
}

// runLoop sends reqs with conns workers. Open loop: each request waits for
// its due time (measured from start) and its latency counts from then, so
// a stall also delays the requests queued behind it. Closed loop: workers
// send back to back until stopAt. genFor resolves a kGen request's target
// generation at send time; stop ends an open loop early.
func (c *lookupClient) runLoop(ctx context.Context, reqs []lookupReq, conns int, openLoop bool, start, stopAt time.Time,
	genFor func(back int) (uint64, bool), stop func() bool) []lookupRes {
	out := make([]lookupRes, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				res := &out[i]
				res.req = &reqs[i]
				if openLoop {
					res.due = start.Add(reqs[i].due)
					if stop != nil && stop() {
						res.req = nil
						return
					}
					if d := time.Until(res.due); d > 0 {
						time.Sleep(d)
					}
				} else if !time.Now().Before(stopAt) {
					res.req = nil
					return
				}
				if reqs[i].kind == kGen {
					g, ok := genFor(reqs[i].back)
					if !ok {
						// No retained generation that far back yet: ask
						// for the current one by its number instead.
						g, _ = genFor(0)
					}
					res.gen = g
				}
				c.do(ctx, res)
			}
		}()
	}
	wg.Wait()
	// Drop the slots no worker reached.
	n := 0
	for i := range out {
		if out[i].req != nil {
			out[n] = out[i]
			n++
		}
	}
	return out[:n]
}

// answerGen extracts the generation an answer names without decoding the
// whole body: both single and batch answers carry one "generation" field.
func answerGen(body []byte) uint64 {
	i := bytes.Index(body, []byte(`"generation":`))
	if i < 0 {
		return 0
	}
	j := i + len(`"generation":`)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	g, _ := strconv.ParseUint(string(body[j:k]), 10, 64)
	return g
}

// refMaps holds the map of every generation answers may name, read
// straight from the store by the benchmark.
type refMaps struct {
	mu sync.Mutex
	m  map[uint64]*cellmap.Map
}

func (r *refMaps) put(gen uint64, m *cellmap.Map) {
	r.mu.Lock()
	r.m[gen] = m
	r.mu.Unlock()
}

func (r *refMaps) get(gen uint64) *cellmap.Map {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[gen]
}

// expect is the answer for a built from a direct Map.Lookup, independent
// of the serving path's own answer shaping.
func expect(m *cellmap.Map, gen uint64, a netip.Addr) cellmap.LookupResponse {
	r := cellmap.LookupResponse{Addr: a.String(), Generation: gen}
	if e, ok := m.Lookup(a); ok {
		r.Cellular, r.Prefix, r.ASN, r.Country = true, e.Prefix.String(), e.ASN, e.Country
		r.Ratio, r.DU = e.Ratio, e.DU
		if len(e.RAT) > 0 {
			r.RAT = e.RAT
		}
	}
	return r
}

func sameAnswer(got, want cellmap.LookupResponse) bool {
	if len(got.RAT) == 0 {
		got.RAT = nil
	}
	return reflect.DeepEqual(got, want)
}

// check compares one gateway answer with a direct lookup on the map of
// the generation the answer names. It returns "" when the answer is right.
func (r *refMaps) check(res *lookupRes) string {
	if res.err != nil {
		return "error: " + res.err.Error()
	}
	if res.status != http.StatusOK {
		return fmt.Sprintf("status %d: %.120s", res.status, res.body)
	}
	switch res.req.kind {
	case kBatch:
		var br cellmap.BatchResponse
		if err := json.Unmarshal(res.body, &br); err != nil {
			return "bad batch body: " + err.Error()
		}
		m := r.get(br.Generation)
		if m == nil {
			return fmt.Sprintf("batch names unknown generation %d", br.Generation)
		}
		if br.Degraded || len(br.Results) != len(res.req.addrs) {
			return fmt.Sprintf("batch degraded=%v with %d results for %d addresses", br.Degraded, len(br.Results), len(res.req.addrs))
		}
		for i, a := range res.req.addrs {
			if want := expect(m, br.Generation, a); !sameAnswer(br.Results[i], want) {
				return fmt.Sprintf("batch result %d: got %+v want %+v", i, br.Results[i], want)
			}
		}
		return ""
	default:
		var lr cellmap.LookupResponse
		if err := json.Unmarshal(res.body, &lr); err != nil {
			return "bad lookup body: " + err.Error()
		}
		if res.req.kind == kGen && lr.Generation != res.gen {
			return fmt.Sprintf("asked for generation %d, answer names %d", res.gen, lr.Generation)
		}
		m := r.get(lr.Generation)
		if m == nil {
			return fmt.Sprintf("answer names unknown generation %d", lr.Generation)
		}
		if want := expect(m, lr.Generation, res.req.addrs[0]); !sameAnswer(lr, want) {
			return fmt.Sprintf("lookup: got %+v want %+v", lr, want)
		}
		return ""
	}
}

// lookupTally folds checked answers into the lookup metrics.
type lookupTally struct {
	single, batch samples // ms
	attempted     int
	ok            int // right, and within the latency limit
	wrong         int
	failed        int
	addrsSent     int // addresses asked for
	firstWrong    string
	right         []bool  // per result: answered and correct
	lateness      samples // ms the generator sent after the due time
}

func (t *lookupTally) add(res []lookupRes, ref *refMaps, openLoop bool, cfg config, latency bool) {
	for i := range res {
		r := &res[i]
		t.attempted++
		t.addrsSent += len(r.req.addrs)
		if openLoop {
			t.lateness.addDur(r.sent.Sub(r.due), time.Millisecond)
		}
		msg := ref.check(r)
		t.right = append(t.right, msg == "")
		if msg != "" {
			if r.err != nil || r.status != http.StatusOK {
				t.failed++
			} else {
				t.wrong++
			}
			if t.firstWrong == "" {
				t.firstWrong = msg
			}
			continue
		}
		lat := r.latency(openLoop)
		limit := cfg.SingleLimitMs
		if r.req.kind == kBatch {
			limit = cfg.BatchLimitMs
		}
		if float64(lat)/float64(time.Millisecond) <= limit {
			t.ok++
		}
		if !latency {
			continue
		}
		switch r.req.kind {
		case kBatch:
			t.batch.addDur(lat, time.Millisecond)
		case kSingle:
			t.single.addDur(lat, time.Millisecond)
		}
	}
}
