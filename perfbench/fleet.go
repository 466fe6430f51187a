package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"time"

	"cellspot/internal/cellmap"
	"cellspot/internal/cluster"
	"cellspot/internal/history"
	"cellspot/internal/obs"
	"cellspot/internal/obs/httpmw"
	"cellspot/internal/snapshot"
)

// fleet is the in-process serving cluster: Shards × Replicas shard nodes,
// each with its own swappable map, history index and metrics registry as
// separate cellmapd processes would have, plus one gateway in front. All
// hops run over loopback HTTP.
type fleet struct {
	sws   [][]*cellmap.Swappable
	hists [][]*history.Index
	srvs  []*httptest.Server
	gw    *cluster.Gateway
	gwSrv *httptest.Server

	stopHealth context.CancelFunc
	healthDone chan struct{}

	shardSt *hopStats
	gwSt    *hopStats
	calls   *callStats
}

// callStats counts, per gateway request, the shard calls it made and the
// distinct shards it reached (traced runs only).
type callStats struct {
	mu        sync.Mutex
	shardOf   map[string]int // replica host -> shard
	perReq    map[uint64]*reqCalls
	forwarded int
}

type reqCalls struct {
	calls  int
	shards map[int]bool
}

func (c *callStats) note(r *http.Request, caller spanCtx) {
	if caller.id == 0 {
		return // a health probe, not part of a lookup
	}
	n := 1
	if r.Method == http.MethodPost && r.GetBody != nil {
		if body, err := r.GetBody(); err == nil {
			var br cellmap.BatchRequest
			if json.NewDecoder(body).Decode(&br) == nil {
				n = len(br.IPs)
			}
			body.Close()
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rc := c.perReq[caller.id]
	if rc == nil {
		rc = &reqCalls{shards: make(map[int]bool)}
		c.perReq[caller.id] = rc
	}
	rc.calls++
	rc.shards[c.shardOf[r.URL.Host]] = true
	c.forwarded += n
}

// totals returns gateway requests that reached a shard, shard calls, and
// distinct (request, shard) pairs.
func (c *callStats) totals() (reqs, calls, pairs, forwarded int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rc := range c.perReq {
		reqs++
		calls += rc.calls
		pairs += len(rc.shards)
	}
	return reqs, calls, pairs, c.forwarded
}

func shardSpan(r *http.Request) string {
	switch {
	case r.URL.Query().Has("gen"):
		return "history.gen_lookup"
	case r.URL.Path == "/v1/lookup":
		return "shard.lookup"
	case r.URL.Path == "/v1/lookup/batch":
		return "shard.batch"
	}
	return "shard.other"
}

func gatewaySpan(r *http.Request) string {
	switch r.URL.Path {
	case "/v1/lookup":
		return "gateway.lookup"
	case "/v1/lookup/batch":
		return "gateway.batch"
	}
	return "gateway.other"
}

// bootFleet starts every shard replica serving m as generation gen, with
// history over store, and a gateway with the default cache in front. It
// returns once the gateway's first health sweep has seen every replica.
func bootFleet(cfg config, tr *tracer, store *snapshot.Store, m *cellmap.Map, gen uint64) (*fleet, error) {
	f := &fleet{
		shardSt: newHopStats(),
		gwSt:    newHopStats(),
		calls:   &callStats{shardOf: make(map[string]int), perReq: make(map[uint64]*reqCalls)},
	}
	topo := cluster.Topology{Format: cluster.TopologyFormat, Shards: make([]cluster.ShardSpec, cfg.Shards)}
	ring := topo.Ring()
	for s := 0; s < cfg.Shards; s++ {
		var sws []*cellmap.Swappable
		var hists []*history.Index
		for j := 0; j < cfg.Replicas; j++ {
			reg := obs.NewRegistry()
			sw := cellmap.NewSwappable(m, gen)
			sw.EnableMetrics(reg)
			view, err := cluster.NewShardView(sw, ring, s)
			if err != nil {
				f.close()
				return nil, err
			}
			view.EnableMetrics(reg)
			hist, err := history.New(history.Config{Store: store, Metrics: reg})
			if err != nil {
				f.close()
				return nil, err
			}
			mux := httpmw.NewMux(reg)
			cluster.MountShardHistory(mux, view, hist)
			srv := httptest.NewServer(tr.wrap(mux, shardSpan, f.shardSt))
			f.srvs = append(f.srvs, srv)
			u, _ := url.Parse(srv.URL)
			f.calls.shardOf[u.Host] = s
			topo.Shards[s].Replicas = append(topo.Shards[s].Replicas, srv.URL)
			sws = append(sws, sw)
			hists = append(hists, hist)
		}
		f.sws = append(f.sws, sws)
		f.hists = append(f.hists, hists)
	}
	reg := obs.NewRegistry()
	gcfg := cluster.GatewayConfig{Topology: topo, Registry: reg, CacheSize: cfg.CacheSize}
	if tr.enabled {
		gcfg.Client = &http.Client{
			Timeout: 2 * time.Second,
			Transport: &transport{
				t: tr, name: "gateway.shard_call",
				base:   http.DefaultTransport.(*http.Transport).Clone(),
				onCall: f.calls.note,
			},
		}
	}
	g, err := cluster.NewGateway(gcfg)
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = g
	mux := httpmw.NewMux(reg)
	g.Mount(mux)
	f.gwSrv = httptest.NewServer(tr.wrap(mux, gatewaySpan, f.gwSt))
	ctx, cancel := context.WithCancel(context.Background())
	f.stopHealth = cancel
	g.CheckNow(ctx)
	f.healthDone = make(chan struct{})
	go func() {
		defer close(f.healthDone)
		g.Run(ctx)
	}()
	return f, nil
}

// replicas calls fn for every replica in (shard, replica) order.
func (f *fleet) replicas(fn func(sw *cellmap.Swappable, hist *history.Index) error) error {
	for s := range f.sws {
		for j := range f.sws[s] {
			if err := fn(f.sws[s][j], f.hists[s][j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// close stops the health loop and every server, waiting for each.
func (f *fleet) close() {
	if f.stopHealth != nil {
		f.stopHealth()
		<-f.healthDone
	}
	if f.gwSrv != nil {
		f.gwSrv.Close()
	}
	for _, s := range f.srvs {
		s.Close()
	}
}
