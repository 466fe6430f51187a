package main

import (
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"cellspot/internal/lpm"
)

// perLayer lists the per-layer metrics every traced run prints, with
// their units. BENCHMARK.json declares the same list; README.md says which
// end-to-end metric each should move, on which workload.
var perLayer = []struct{ name, unit string }{
	{"world.generate_s", "s"},
	{"world.generate_alloc_mb", "MB"},
	{"beacon.generate_s", "s"},
	{"beacon.generate_alloc_mb", "MB"},
	{"demand.generate_s", "s"},
	{"demand.generate_alloc_mb", "MB"},
	{"demand.smooth_s", "s"},
	{"demand.smooth_alloc_mb", "MB"},
	{"classify.classify_s", "s"},
	{"classify.classify_alloc_mb", "MB"},
	{"pipeline.analyze_s", "s"},
	{"pipeline.analyze_alloc_mb", "MB"},
	{"mapbuild.build_s", "s"},
	{"snapshot.publish_s", "s"},
	{"cellmap.write_s", "s"},
	{"cellmap.read_s", "s"},
	{"cellmap.map_bytes", "bytes"},
	{"cellmap.entries", "count"},
	{"cellmap.reload_s", "s"},
	{"cellmap.swap_us", "us"},
	{"lpm.build_s", "s"},
	{"lpm.prefixes", "count"},
	{"lpm.lookup_ns", "ns"},
	{"rum.post_p50_ms", "ms"},
	{"rum.post_p99_ms", "ms"},
	{"rum.records_accepted", "count"},
	{"federation.ship_s", "s"},
	{"federation.segments", "count"},
	{"federation.ship_bytes", "bytes"},
	{"federation.rewinds", "count"},
	{"federation.http_429", "count"},
	{"federation.fold_p50_ms", "ms"},
	{"federation.fold_p99_ms", "ms"},
	{"federation.fold_us_per_record", "us"},
	{"federation.tick_p50_s", "s"},
	{"federation.tick_p99_s", "s"},
	{"federation.window_records", "count"},
	{"gateway.self_p50_ms", "ms"},
	{"gateway.self_p99_ms", "ms"},
	{"gateway.addrs_requested", "count"},
	{"gateway.addrs_forwarded", "count"},
	{"gateway.cache_hit_ratio", "ratio"},
	{"gateway.shard_calls_per_request", "ratio"},
	{"gateway.extra_attempts_ratio", "ratio"},
	{"gateway.visible_ms", "ms"},
	{"shard.request_p50_ms", "ms"},
	{"shard.request_p99_ms", "ms"},
	{"shard.calls", "count"},
	{"shard.non2xx_421", "count"},
	{"shard.non2xx_503", "count"},
	{"shard.non2xx_504", "count"},
	{"history.gen_lookup_p50_ms", "ms"},
	{"history.gen_lookup_p99_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"loadgen.lateness_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.failed", "count"},
	{"cycle_s", "s"},
	{"cycle.records", "count"},
	{"trace.overhead_pct", "%"},
}

// layerMetrics computes every per-layer metric of a traced run from its
// spans and the counters the benchmark kept at the same boundaries.
func layerMetrics(cfg config, tr *tracer, e *env, sr *serveResult, lv *liveResult, rep *report, pl *layerAcc) {
	out := make(map[string]metric)
	rep.PerLayer = out
	pl.metrics(out)
	put := func(name, unit string, v float64, n int) { out[name] = metric{Value: v, Unit: unit, Samples: n} }
	dist := func(prefix, unit string, s samples) {
		put(prefix+"_p50_"+unit, unit, s.median(), len(s))
		put(prefix+"_p99_"+unit, unit, s.pct(0.99), len(s))
	}

	// lpm: build the matcher the served map indexes through, then look up
	// the serve phase's addresses directly.
	ents := e.served.Entries()
	les := make([]lpm.Entry, len(ents))
	for i, en := range ents {
		les[i] = lpm.Entry{Prefix: en.Prefix, Value: int32(i)}
	}
	var m *lpm.Matcher
	d, err := tr.timed("lpm.build", 0, func(uint64) error {
		var err error
		m, err = lpm.Build(les)
		return err
	})
	put("lpm.build_s", "s", d.Seconds(), 1)
	if err != nil {
		rep.gate("lpm_build", false, "%v", err)
	} else {
		put("lpm.prefixes", "count", float64(m.Len()), 1)
		var n int
		d, _ = tr.timed("lpm.lookup", 0, func(uint64) error {
			for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
				for i := range e.serveOpen {
					for _, a := range e.serveOpen[i].addrs {
						m.Lookup(a)
						n++
					}
				}
			}
			return nil
		})
		put("lpm.lookup_ns", "ns", float64(d.Nanoseconds())/float64(max(n, 1)), n)
	}

	// Gateway: self time is the gateway span minus its shard calls.
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	self := selfTimes(spans)
	var gwSelf samples
	for _, s := range spans {
		if s.Name == "gateway.lookup" || s.Name == "gateway.batch" {
			gwSelf.add(float64(self[s.ID]) / 1e6)
		}
	}
	dist("gateway.self", "ms", gwSelf)
	requested := 0
	for _, t := range []*lookupTally{&e.warm, &sr.open, &sr.closed, &lv.lookups, &lv.probes} {
		requested += t.addrsSent
	}
	reqs, calls, pairs, forwarded := e.f.calls.totals()
	put("gateway.addrs_requested", "count", float64(requested), 1)
	put("gateway.addrs_forwarded", "count", float64(forwarded), 1)
	put("gateway.cache_hit_ratio", "ratio", 1-float64(forwarded)/float64(max(requested, 1)), requested)
	gwReqs := len(e.f.gwSt.durations("gateway.lookup")) + len(e.f.gwSt.durations("gateway.batch"))
	put("gateway.shard_calls_per_request", "ratio", float64(calls)/float64(max(gwReqs, 1)), gwReqs)
	put("gateway.extra_attempts_ratio", "ratio", float64(calls-pairs)/float64(max(pairs, 1)), reqs)
	put("gateway.visible_ms", "ms", lv.visibleMs.median(), len(lv.visibleMs))

	// Shards and history.
	var shardMs samples
	for _, n := range []string{"shard.lookup", "shard.batch", "history.gen_lookup"} {
		shardMs = append(shardMs, e.f.shardSt.durations(n)...)
	}
	dist("shard.request", "ms", shardMs)
	put("shard.calls", "count", float64(len(shardMs)), 1)
	for _, code := range []int{http.StatusMisdirectedRequest, http.StatusServiceUnavailable, http.StatusGatewayTimeout} {
		put("shard.non2xx_"+strconv.Itoa(code), "count", float64(e.f.shardSt.count(code)), 1)
	}
	dist("history.gen_lookup", "ms", e.f.shardSt.durations("history.gen_lookup"))

	// Live loop.
	lp := e.lp
	dist("rum.post", "ms", lp.collSt.durations("rum.post"))
	accepted := 0
	for _, c := range lp.colls {
		accepted += c.Stats().Received
	}
	put("rum.records_accepted", "count", float64(accepted), 1)
	lp.mu.Lock()
	put("federation.ship_s", "s", lp.shipS.median(), len(lp.shipS))
	put("federation.segments", "count", float64(lp.shipTotal.Segments), 1)
	put("federation.ship_bytes", "bytes", float64(lp.shipTotal.Bytes), 1)
	put("federation.rewinds", "count", float64(lp.shipTotal.Rewinds), 1)
	fold := lp.recvSt.durations("federation.segment")
	put("federation.fold_us_per_record", "us", fold.sum()*1000/float64(max(lp.shipTotal.Records, 1)), lp.shipTotal.Records)
	put("federation.tick_p50_s", "s", lp.tickS.median(), len(lp.tickS))
	put("federation.tick_p99_s", "s", lp.tickS.pct(0.99), len(lp.tickS))
	put("cellmap.reload_s", "s", lp.reloadS.median(), len(lp.reloadS))
	put("cellmap.swap_us", "us", lp.swapUS.median(), len(lp.swapUS))
	put("cycle_s", "s", lp.cycleS.median(), len(lp.cycleS))
	var perCycle samples
	for _, cy := range lp.cycles {
		perCycle.add(float64(cy.records))
	}
	put("cycle.records", "count", perCycle.mean(), len(perCycle))
	lp.mu.Unlock()
	dist("federation.fold", "ms", fold)
	put("federation.http_429", "count", float64(lp.recvSt.count(http.StatusTooManyRequests)), 1)
	put("federation.window_records", "count", float64(lp.recvReg.Gauge("federation_recv_window_records", "").Value()), 1)

	// Runtime and load generator.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	put("runtime.gc_cycles", "count", float64(ms.NumGC), 1)
	put("runtime.gc_pause_ms", "ms", float64(ms.PauseTotalNs)/1e6, int(ms.NumGC))
	put("runtime.alloc_mb", "MB", float64(ms.TotalAlloc)/(1<<20), 1)
	late := append(append(samples(nil), sr.open.lateness...), lv.lookups.lateness...)
	put("loadgen.lateness_p99_ms", "ms", late.pct(0.99), len(late))
	sent, failed := 0, 0
	for _, t := range []*lookupTally{&sr.open, &sr.closed, &lv.lookups, &lv.probes} {
		sent += t.attempted
		failed += t.failed + t.wrong
	}
	put("loadgen.sent", "count", float64(sent), 1)
	put("loadgen.failed", "count", float64(failed), 1)

	// Tracing overhead: single-lookup median with spans recorded against
	// the same open loop with recording off.
	base, traced := sr.base.single.median(), sr.open.single.median()
	put("trace.overhead_pct", "%", 100*(traced/base-1), len(sr.base.single))
	if math.IsNaN(base) {
		rep.Notes = append(rep.Notes, "no untraced baseline for the tracing overhead")
	}
	rep.Layers = summarize(spans)
}
