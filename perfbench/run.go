package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cellspot/internal/cellmap"
	"cellspot/internal/mapbuild"
	"cellspot/internal/snapshot"
)

// endToEnd lists the end-to-end metrics every untraced run prints, with
// their units. BENCHMARK.json declares the same list.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"offline_s", "s"},
	{"single_p50_ms", "ms"},
	{"single_p90_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"lookup_ok_frac", "ratio"},
	{"lookup_addrs_per_s", "addr/s"},
	{"ingest_records_per_s", "rec/s"},
	{"freshness_p50_s", "s"},
	{"freshness_p90_s", "s"},
}

// env is one set-up: the serving store, fleet, live plane and every
// generated input the measured phases use.
type env struct {
	store  *snapshot.Store
	f      *fleet
	lp     *livePlane
	ref    *refMaps
	served *cellmap.Map // the read-only generation of the serve phase

	serveOpen, serveBase, serveClosed, liveReqs, probes []lookupReq
	beaconDue                                           []time.Duration

	warm lookupTally
}

func (e *env) close() {
	if e.lp != nil {
		e.lp.close()
	}
	if e.f != nil {
		e.f.close()
	}
}

// setup builds one env: it publishes the offline map as the serving
// store's first generation, boots the fleet and the live plane, draws
// every request and record from the seed, and warms caches, connections
// and the receiver's first generation. None of it is timed as a phase.
func setup(ctx context.Context, cfg config, tr *tracer, dir string, off *offlineRun, side mapbuild.Inputs, rep *report) (_ *env, err error) {
	e := &env{ref: &refMaps{m: make(map[uint64]*cellmap.Map)}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.store, err = snapshot.Open(filepath.Join(dir, "store")); err != nil {
		return nil, err
	}
	gen, err := publishMap(tr, 0, e.store, off.read, newLayerAcc())
	if err != nil {
		return nil, err
	}
	e.ref.put(gen.Seq, off.read)
	e.served = off.read
	if e.f, err = bootFleet(cfg, tr, e.store, off.read, gen.Seq); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewPCG(cfg.Seed, 0x10ad))
	dd := newDemandDraw(off.res.Demand)
	var src addrSource = dd
	if cfg.Workload == "zipf" {
		src = newZipfSource(dd, cfg.Population, cfg.ZipfS, rng)
	}
	serveMix := mix{batch: cfg.BatchFrac}
	n := func(rate float64, d time.Duration) int { return int(math.Ceil(rate * d.Seconds())) }
	warm := schedule(rng, src, n(20000, secs(cfg.WarmSeconds)), 0, serveMix, cfg.BatchSize)
	e.serveOpen = schedule(rng, src, n(cfg.ServeRate, cfg.serveOpen()), cfg.ServeRate, serveMix, cfg.BatchSize)
	e.serveClosed = schedule(rng, src, n(20000, cfg.closed()), 0, serveMix, cfg.BatchSize)
	if cfg.Trace {
		e.serveBase = schedule(rng, src, n(cfg.ServeRate, cfg.serveOpen()/2), cfg.ServeRate, serveMix, cfg.BatchSize)
	}
	// The live lookup schedule outlasts the refresh phase so lookups keep
	// arriving until the last beacon batch is visible.
	e.liveReqs = schedule(rng, src, n(cfg.LiveRate, cfg.refresh()+20*time.Second), cfg.LiveRate,
		mix{batch: cfg.BatchFrac, gen: cfg.GenFrac}, cfg.BatchSize)
	e.probes = schedule(rng, src, 64*cfg.IngestRounds, 0, mix{}, cfg.BatchSize)
	e.beaconDue = beaconDue(rng, n(cfg.BeaconRate, cfg.refresh()), cfg.BeaconRate)

	warmBatches := 2 * collectors
	perRound := cfg.IngestRecords / cfg.BeaconBatch
	total := warmBatches + cfg.IngestRounds*perRound + len(e.beaconDue)
	batches, err := recordStream(off.res, cfg.Seed, total*cfg.BeaconBatch, cfg.BeaconBatch)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	for _, b := range batches {
		h.Write(b)
	}
	for _, d := range e.beaconDue {
		fmt.Fprintf(h, "%d\n", d)
	}
	rep.Inputs["record_schedule_sha256"] = hex.EncodeToString(h.Sum(nil))
	rep.Inputs["lookup_schedule_sha256"] = scheduleDigest(warm, e.serveOpen, e.serveClosed, e.serveBase, e.liveReqs, e.probes)
	if e.lp, err = bootLive(cfg, tr, dir, e.f, e.store, side, e.ref, batches); err != nil {
		return nil, err
	}

	// Warm-up: fill the gateway cache and connections, then push a few
	// batches through the live loop so the receiver's first generation is
	// built. The fleet keeps serving the offline map until the live phase.
	lc := newLookupClient(e.f.gwSrv.URL, cfg.Conns, tr)
	defer lc.close()
	wres := lc.runLoop(ctx, warm, cfg.Conns, false, time.Time{}, time.Now().Add(secs(cfg.WarmSeconds)), nil, nil)
	e.warm.add(wres, e.ref, false, cfg, false)
	for i := 0; i < warmBatches; i++ {
		rep.Attempted++
		if pr := e.lp.post(ctx, time.Time{}); pr.err != nil {
			return nil, fmt.Errorf("warm-up post: %w", pr.err)
		}
	}
	rep.Attempted++
	if _, err := e.lp.cycle(ctx, false); err != nil {
		return nil, fmt.Errorf("warm-up cycle: %w", err)
	}
	return e, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// run measures one workload end to end.
func run(ctx context.Context, cfg config) (*report, error) {
	rep := &report{
		Env: environment(cfg.Root), Config: cfg, Inputs: map[string]string{},
		EndToEnd: map[string]metric{}, Extra: map[string]metric{},
	}
	tr := newTracer(cfg.Trace)
	cpu0 := cpuTimes()
	dir := filepath.Join(cfg.Root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", cfg.Workload, cfg.Seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pl := newLayerAcc()

	phase := time.Now()
	lap := func(name string) {
		rep.Extra["phase_"+name+"_s"] = metric{Value: time.Since(phase).Seconds(), Unit: "s", Samples: 1}
		phase = time.Now()
	}
	off, offlineS, err := offlinePhase(cfg, tr, dir, rep, pl)
	if err != nil {
		return nil, fmt.Errorf("offline: %w", err)
	}
	off.trim()
	side := sideInputs(off.res)
	runtime.GC()
	lap("offline")

	var e *env
	var setupS samples
	for i := 0; i < cfg.SetupReps; i++ {
		start := time.Now()
		be, err := setup(ctx, cfg, tr, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), off, side, rep)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS.add(time.Since(start).Seconds())
		rep.Extra[fmt.Sprintf("setup_rep%d_s", i)] = metric{Value: setupS[i], Unit: "s", Samples: 1}
		if i < cfg.SetupReps-1 {
			be.close()
			continue
		}
		e = be
	}
	defer e.close()
	rep.countTally("warm-up lookups", &e.warm)
	off.res = nil // the world: set-up was its last user
	runtime.GC()
	lap("setup")

	serve := servePhase(ctx, cfg, tr, e, rep)
	lap("serve")
	lv, err := livePhase(ctx, cfg, tr, e, rep)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	lap("live")

	// End-to-end figures.
	set := func(name, unit string, s samples) {
		rep.EndToEnd[name] = metric{Value: s.median(), Unit: unit, Samples: len(s)}
	}
	set("setup_s", "s", setupS)
	set("offline_s", "s", offlineS)
	set("ingest_records_per_s", "rec/s", lv.ingest)
	rep.EndToEnd["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB", Samples: 1}
	pct := func(name, unit string, s samples, p float64) {
		rep.EndToEnd[name] = metric{Value: s.pct(p), Unit: unit, Samples: len(s)}
		if !tailOK(len(s), p) && p > 0.5 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s has %d samples: fewer than 10 beyond the percentile", name, len(s)))
		}
	}
	// Latency figures are medians over equal windows of the open loop, so
	// a burst of CPU stolen from the host moves a window, not the figure.
	// Batches get fewer, longer windows to keep ten samples beyond p90.
	windowed := func(into map[string]metric, name string, kind reqKind, windows int, p float64) {
		v, n, least := serve.windowPct(cfg, kind, windows, p)
		into[name] = metric{Value: v, Unit: "ms", Samples: n}
		if !tailOK(least, p) && p > 0.5 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s: a window has %d samples, fewer than 10 beyond the percentile", name, least))
		}
	}
	windowed(rep.EndToEnd, "single_p50_ms", kSingle, 8, 0.5)
	windowed(rep.EndToEnd, "single_p90_ms", kSingle, 8, 0.9)
	windowed(rep.EndToEnd, "batch_p50_ms", kBatch, 4, 0.5)
	// Measured but not bounded: its ten-seed spread reached 0.30 (README).
	windowed(rep.Extra, "batch_p90_ms", kBatch, 4, 0.9)
	pct("freshness_p50_s", "s", lv.fresh, 0.5)
	pct("freshness_p90_s", "s", lv.fresh, 0.9)
	rep.EndToEnd["lookup_addrs_per_s"] = metric{Value: serve.closedRate.median(), Unit: "addr/s", Samples: serve.closed.attempted}
	all := []*lookupTally{&serve.open, &serve.closed, &lv.lookups, &lv.probes}
	okN, attN := 0, 0
	for _, t := range all {
		okN += t.ok
		attN += t.attempted
	}
	rep.EndToEnd["lookup_ok_frac"] = metric{Value: float64(okN) / float64(max(attN, 1)), Unit: "ratio", Samples: attN}

	// Figures the result line leaves out. p99 is not a bounded metric: in
	// one process on a small host it is set by whether GC mark phases, a
	// few percent of the run, fall into the window.
	rep.Extra["single_p99_ms"] = metric{Value: serve.open.single.pct(0.99), Unit: "ms", Samples: len(serve.open.single)}
	rep.Extra["batch_p99_ms"] = metric{Value: serve.open.batch.pct(0.99), Unit: "ms", Samples: len(serve.open.batch)}
	rep.Extra["cpu_steal_frac"] = metric{Value: stealFrac(cpu0), Unit: "ratio", Samples: 1}
	rep.Extra["live_single_p50_ms"] = metric{Value: lv.lookups.single.median(), Unit: "ms", Samples: len(lv.lookups.single)}
	rep.Extra["live_single_p99_ms"] = metric{Value: lv.lookups.single.pct(0.99), Unit: "ms", Samples: len(lv.lookups.single)}
	rep.Extra["live_batch_p99_ms"] = metric{Value: lv.lookups.batch.pct(0.99), Unit: "ms", Samples: len(lv.lookups.batch)}

	if cfg.Trace {
		layerMetrics(cfg, tr, e, serve, lv, rep, pl)
		spanFile := filepath.Join(cfg.Root, ".bench_build", "results", fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.Workload, cfg.Seed))
		if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeSpans(spanFile); err != nil {
			return nil, err
		}
		rep.SpanFile = spanFile
	}
	rep.Extra["error_frac"] = metric{Value: float64(rep.Failed) / float64(max(rep.Attempted, 1)), Unit: "ratio", Samples: int(rep.Attempted)}
	rep.checkMetrics(cfg)
	return rep, nil
}

// countTally adds a lookup tally's operations to the run's counts and
// gates its answers.
func (r *report) countTally(what string, t *lookupTally) {
	r.Attempted += int64(t.attempted)
	r.Failed += int64(t.failed + t.wrong)
	r.gate("answers_correct", t.wrong == 0, "%s: %d wrong answers, first: %s", what, t.wrong, t.firstWrong)
	if t.failed > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("%s: %d failed requests, first: %s", what, t.failed, t.firstWrong))
	}
}

// checkMetrics gates that every declared metric was measured.
func (r *report) checkMetrics(cfg config) {
	names := endToEnd
	ms := r.EndToEnd
	if cfg.Trace {
		names = perLayer
		ms = r.PerLayer
	}
	for _, m := range names {
		v, ok := ms[m.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.gate("metrics_complete", false, "metric %s not measured", m.name)
			ms[m.name] = metric{Value: 0, Unit: m.unit}
			continue
		}
		if v.Unit != m.unit {
			r.gate("metrics_complete", false, "metric %s has unit %s, want %s", m.name, v.Unit, m.unit)
		}
	}
	for name, v := range r.Extra {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.Extra[name] = metric{Unit: v.Unit}
		}
	}
	r.gate("metrics_complete", true, "")
}

// serveResult is what the serve phase measured.
type serveResult struct {
	open, closed lookupTally
	base         lookupTally // traced runs: the same load with recording off
	closedRate   samples     // addresses answered per second, per window
	openStart    time.Time
	openRes      []lookupRes
}

// windowPct splits the open loop into equal windows by due time and
// returns the median over windows of each window's p-th percentile latency
// of correct answers of one kind, the sample count, and the smallest
// window's count.
func (sr *serveResult) windowPct(cfg config, kind reqKind, windows int, p float64) (float64, int, int) {
	per := make([]samples, windows)
	n := 0
	for i := range sr.openRes {
		r := &sr.openRes[i]
		w := int(r.due.Sub(sr.openStart) * time.Duration(windows) / cfg.serveOpen())
		if r.req.kind != kind || !sr.open.right[i] || w < 0 || w >= windows {
			continue
		}
		per[w].addDur(r.latency(true), time.Millisecond)
		n++
	}
	var ps samples
	least := n
	for _, s := range per {
		ps.add(s.pct(p))
		least = min(least, len(s))
	}
	return ps.median(), n, least
}

// servePhase measures lookups against one read-only generation: an open
// loop at a fixed Poisson rate, then a one-connection closed loop.
func servePhase(ctx context.Context, cfg config, tr *tracer, e *env, rep *report) *serveResult {
	sr := &serveResult{}
	lc := newLookupClient(e.f.gwSrv.URL, cfg.Conns, tr)
	defer lc.close()
	if cfg.Trace {
		// Tracing overhead: the same open loop with recording off first.
		tr.on.Store(false)
		base := lc.runLoop(ctx, e.serveBase, cfg.Conns, true, time.Now().Add(10*time.Millisecond), time.Time{}, nil, nil)
		tr.on.Store(true)
		sr.base.add(base, e.ref, true, cfg, true)
		rep.countTally("serve baseline lookups", &sr.base)
	}
	sr.openStart = time.Now().Add(10 * time.Millisecond)
	sr.openRes = lc.runLoop(ctx, e.serveOpen, cfg.Conns, true, sr.openStart, time.Time{}, nil, nil)
	sr.open.add(sr.openRes, e.ref, true, cfg, true)
	rep.countTally("serve open-loop lookups", &sr.open)

	start := time.Now()
	stop := start.Add(cfg.closed())
	// One connection: two back-to-back connections saturate a 2-core host,
	// and their rate then tracks the host's other tenants more than the
	// service (IQR/median 0.28 over ten seeds, against 0.07 for the open
	// loop's median latency).
	cres := lc.runLoop(ctx, e.serveClosed, 1, false, time.Time{}, stop, nil, nil)
	sr.closed.add(cres, e.ref, false, cfg, false)
	// Throughput is the median over equal windows of the closed loop, so
	// one stall (a GC, a noisy neighbour) moves one window, not the figure.
	const windows = 8
	counts := make([]int, windows)
	for i := range cres {
		w := int(cres[i].done.Sub(start) * windows / cfg.closed())
		if sr.closed.right[i] && w >= 0 && w < windows {
			counts[w] += len(cres[i].req.addrs)
		}
	}
	for _, c := range counts {
		sr.closedRate.add(float64(c) / (cfg.closed() / windows).Seconds())
	}
	rep.countTally("serve closed-loop lookups", &sr.closed)
	if len(cres) == len(e.serveClosed) {
		rep.Notes = append(rep.Notes, "closed loop used its whole schedule before the phase ended")
	}
	return sr
}

// liveResult is what the live phase measured.
type liveResult struct {
	lookups, probes lookupTally
	ingest          samples // rec/s per ingest round
	fresh           samples // s from a batch's due time to its first answer
	visibleMs       samples // ms from publish to the first answer at that generation
	lookupRes       []lookupRes
	posts           []postRec
}

// livePhase runs the ingest rounds, then the refresh loop with beacon
// batches and lookups arriving open-loop while cycles run back to back.
func livePhase(ctx context.Context, cfg config, tr *tracer, e *env, rep *report) (*liveResult, error) {
	lv := &liveResult{}
	lp := e.lp
	probeLC := newLookupClient(e.f.gwSrv.URL, 1, tr)
	defer probeLC.close()
	var probeRes []lookupRes
	probe := 0
	perRound := cfg.IngestRecords / cfg.BeaconBatch
	for r := 0; r < cfg.IngestRounds; r++ {
		first := time.Now()
		for k := 0; k < perRound; k++ {
			rep.Attempted++
			if pr := lp.post(ctx, time.Time{}); pr.err != nil {
				rep.Failed++
				return nil, fmt.Errorf("ingest post: %w", pr.err)
			}
		}
		rep.Attempted++
		cy, err := lp.cycle(ctx, true)
		if err != nil {
			rep.Failed++
			return nil, fmt.Errorf("ingest cycle: %w", err)
		}
		// The round ends when the gateway answers from the generation that
		// folded it.
		for probe < len(e.probes) {
			res := lookupRes{req: &e.probes[probe]}
			probe++
			probeLC.do(ctx, &res)
			probeRes = append(probeRes, res)
			if answerGen(res.body) >= cy.gen {
				break
			}
		}
		lv.ingest.add(float64(perRound*cfg.BeaconBatch) / time.Since(first).Seconds())
	}

	// Refresh phase.
	lc := newLookupClient(e.f.gwSrv.URL, 1, tr)
	defer lc.close()
	start := time.Now().Add(20 * time.Millisecond)
	var senderDone atomic.Bool
	var drainGen atomic.Uint64
	lv.posts = make([]postRec, len(e.beaconDue))
	var wg sync.WaitGroup
	var cycleErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer senderDone.Store(true)
		for i, d := range e.beaconDue {
			due := start.Add(d)
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
			lv.posts[i] = lp.post(ctx, due)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			finished := senderDone.Load()
			cy, err := lp.cycle(ctx, true)
			if err != nil {
				cycleErr = err
				drainGen.Store(math.MaxUint64)
				return
			}
			if finished && lp.shippedRecords() == lp.postedRecords() {
				g, _ := lp.genBack(0)
				drainGen.Store(g)
				return
			}
			if cy.gen == 0 {
				time.Sleep(10 * time.Millisecond)
			}
		}
	}()
	lv.lookupRes = lc.runLoop(ctx, e.liveReqs, 1, true, start, time.Time{}, lp.genBack, func() bool {
		g := drainGen.Load()
		return g == math.MaxUint64 || g != 0 && lc.maxGen.Load() >= g
	})
	wg.Wait()
	if cycleErr != nil { // the lookups stopped at drainGen = MaxUint64
		rep.Failed++
		return nil, fmt.Errorf("refresh cycle: %w", cycleErr)
	}
	lp.mu.Lock()
	rep.Attempted += int64(len(lp.cycles))
	lp.mu.Unlock()
	for _, p := range lv.posts {
		rep.Attempted++
		if p.err != nil {
			rep.Failed++
			rep.Notes = append(rep.Notes, "beacon post failed: "+p.err.Error())
		}
	}
	lv.lookups.add(lv.lookupRes, e.ref, true, cfg, true)
	rep.countTally("live lookups", &lv.lookups)
	lv.probes.add(probeRes, e.ref, false, cfg, false)
	rep.countTally("ingest probes", &lv.probes)

	// Freshness: each refresh batch's due time to the first current-map
	// answer at or past the generation that folded it.
	first := firstAnswerAt(lv.lookupRes)
	unseen := 0
	for _, p := range lv.posts {
		if p.err != nil {
			continue
		}
		g := lp.foldedGen(p.coll, p.ordinal)
		at, ok := first[g]
		if g == 0 || !ok {
			unseen++
			continue
		}
		lv.fresh.add(at.Sub(p.due).Seconds())
	}
	rep.gate("freshness_observed", unseen == 0, "%d beacon batches never seen folded in a gateway answer", unseen)
	for _, cy := range lp.cycles {
		if at, ok := first[cy.gen]; ok && cy.gen != 0 && !cy.published.IsZero() && at.After(cy.published) {
			lv.visibleMs.add(float64(at.Sub(cy.published)) / float64(time.Millisecond))
		}
	}

	// Exactly-once: every posted record was accepted, shipped and folded
	// once.
	posted := lp.postedRecords()
	accepted := 0
	for _, c := range lp.colls {
		accepted += c.Stats().Received
	}
	folded := int(lp.recvCounter("federation_recv_records_total"))
	shipped := lp.shippedRecords()
	rep.gate("exactly_once", posted == accepted && accepted == shipped && shipped == folded,
		"posted %d, accepted %d, shipped %d, folded %d", posted, accepted, shipped, folded)
	if err := lp.foldCheck(rep); err != nil {
		rep.gate("exactly_once", false, "fold check: %v", err)
	}
	rep.Extra["live_records_folded"] = metric{Value: float64(folded), Unit: "count", Samples: 1}
	if g, ok := lp.genBack(0); ok {
		rep.Extra["live_map_entries"] = metric{Value: float64(e.ref.get(g).Len()), Unit: "count", Samples: 1}
	}
	return lv, nil
}
