package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/cellmap"
	"cellspot/internal/classify"
	"cellspot/internal/federation"
	"cellspot/internal/history"
	"cellspot/internal/live"
	"cellspot/internal/logio"
	"cellspot/internal/mapbuild"
	"cellspot/internal/obs"
	"cellspot/internal/obs/httpmw"
	"cellspot/internal/pipeline"
	"cellspot/internal/rum"
	"cellspot/internal/snapshot"
)

// collectors is the number of edge collectors feeding the receiver.
const collectors = 2

// recordStream draws n beacon records for the world with beacon.Stream,
// orders them by time as a collector would see them, and encodes them as
// NDJSON batches of size records each.
func recordStream(r *pipeline.Result, seed uint64, n, size int) ([][]byte, error) {
	gc := beacon.DefaultGenConfig()
	gc.Seed = seed + 3
	gc.BaseHits = 0.5
	gc.TotalHits = n + n/20 + 1000
	seq, err := beacon.Stream(r.World, gc)
	if err != nil {
		return nil, err
	}
	recs := make([]beacon.Record, 0, gc.TotalHits)
	for rec := range seq {
		recs = append(recs, rec)
	}
	if len(recs) < n {
		return nil, fmt.Errorf("beacon stream yielded %d records, need %d", len(recs), n)
	}
	slices.SortStableFunc(recs, func(a, b beacon.Record) int { return a.Time.Compare(b.Time) })
	recs = recs[:n]
	batches := make([][]byte, 0, n/size)
	for i := 0; i+size <= n; i += size {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for _, rec := range recs[i : i+size] {
			if err := enc.Encode(rec); err != nil {
				return nil, err
			}
		}
		batches = append(batches, b.Bytes())
	}
	return batches, nil
}

// livePlane is the federated write path beside the fleet: collectors
// spooling one sealed shard per posted batch, one shipper per collector,
// and a receiver publishing generations into the fleet's store.
type livePlane struct {
	cfg   config
	tr    *tracer
	f     *fleet
	store *snapshot.Store
	ref   *refMaps

	colls   []*rum.Collector
	collSrv []*httptest.Server
	collSt  *hopStats
	ships   []*federation.Shipper
	recv    *federation.Receiver
	recvReg *obs.Registry
	recvSrv *httptest.Server
	recvSt  *hopStats
	hc      *http.Client

	side     mapbuild.Inputs
	batches  [][]byte
	accepted []bool // per batch: the collector accepted it
	next     int    // next batch to post
	posted   []int  // batches posted per collector
	shipped  []int  // records acknowledged per collector, cumulative

	mu        sync.Mutex
	gens      []uint64 // generations the receiver published, in order
	cycles    []cycleRec
	shipTotal federation.ShipReport
	shipS     samples // s per PollOnce
	tickS     samples // s per Tick that published
	cycleS    samples // s per cycle
	reloadS   samples // s per replica map read
	swapUS    samples // µs per Swap
}

// cycleRec is one refresh cycle: ship → tick → reload and swap.
type cycleRec struct {
	start, end time.Time
	shipped    []int     // cumulative records acknowledged per collector
	gen        uint64    // published generation, 0 when none
	published  time.Time // when Tick returned the new generation
	records    int
}

func bootLive(cfg config, tr *tracer, dir string, f *fleet, store *snapshot.Store, in mapbuild.Inputs, ref *refMaps, batches [][]byte) (*livePlane, error) {
	lp := &livePlane{
		cfg: cfg, tr: tr, f: f, store: store, ref: ref, side: in,
		batches: batches, accepted: make([]bool, len(batches)),
		collSt: newHopStats(), recvSt: newHopStats(),
		posted: make([]int, collectors), shipped: make([]int, collectors),
		recvReg: obs.NewRegistry(),
		hc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
	recv, err := federation.NewReceiver(federation.ReceiverConfig{
		Inputs:  in,
		Store:   store,
		Metrics: lp.recvReg,
	})
	if err != nil {
		return nil, err
	}
	lp.recv = recv
	rmux := httpmw.NewMux(lp.recvReg)
	recv.MountRoutes(rmux)
	lp.recvSrv = httptest.NewServer(tr.wrap(rmux, func(*http.Request) string { return "federation.segment" }, lp.recvSt))
	for c := 0; c < collectors; c++ {
		spoolDir := filepath.Join(dir, fmt.Sprintf("spool-%d", c))
		sp := logio.NewSpool(spoolDir, live.DefaultSpoolPrefix, false, cfg.BeaconBatch)
		reg := obs.NewRegistry()
		coll := rum.NewCollector(rum.WithSpool(sp), rum.WithMetrics(reg))
		mux := httpmw.NewMux(reg)
		coll.MountRoutes(mux)
		lp.colls = append(lp.colls, coll)
		lp.collSrv = append(lp.collSrv, httptest.NewServer(tr.wrap(mux, func(*http.Request) string { return "rum.post" }, lp.collSt)))
		scfg := federation.ShipperConfig{
			SpoolDir:    spoolDir,
			CollectorID: fmt.Sprintf("edge-%d", c),
			Target:      lp.recvSrv.URL,
			StateFile:   filepath.Join(dir, fmt.Sprintf("shipper-%d.json", c)),
			Metrics:     reg,
		}
		if tr.enabled {
			scfg.HTTPClient = &http.Client{Transport: &transport{
				t: tr, name: "federation.ship_call", base: http.DefaultTransport.(*http.Transport).Clone(),
			}}
		}
		sh, err := federation.NewShipper(scfg)
		if err != nil {
			lp.close()
			return nil, err
		}
		lp.ships = append(lp.ships, sh)
	}
	return lp, nil
}

func (lp *livePlane) close() {
	lp.hc.CloseIdleConnections()
	for _, s := range lp.collSrv {
		s.Close()
	}
	for _, c := range lp.colls {
		c.Close()
	}
	if lp.recvSrv != nil {
		lp.recvSrv.Close()
	}
}

// postRec is one posted beacon batch.
type postRec struct {
	coll, ordinal int // collector and its per-collector batch number
	due, done     time.Time
	err           error
}

// post sends the next batch to collector next%collectors, serially over
// the benchmark's one beacon connection.
func (lp *livePlane) post(ctx context.Context, due time.Time) postRec {
	i := lp.next
	lp.next++
	c := i % collectors
	lp.mu.Lock()
	rec := postRec{coll: c, ordinal: lp.posted[c], due: due}
	lp.mu.Unlock()
	id := lp.tr.id()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, lp.collSrv[c].URL+"/v1/beacons", bytes.NewReader(lp.batches[i]))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if id != 0 {
		req.Header.Set(hdrReq, strconv.FormatUint(id, 10))
		req.Header.Set(hdrParent, strconv.FormatUint(id, 10))
	}
	sent := time.Now()
	resp, err := lp.hc.Do(req)
	if err != nil {
		rec.err = err
		return rec
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.done = time.Now()
	if id != 0 {
		sp := span{ID: id, Req: id, Name: "client.beacon", Start: lp.tr.ns(sent), End: lp.tr.ns(rec.done)}
		if !due.IsZero() {
			sp.Wait = sent.Sub(due).Nanoseconds()
		}
		lp.tr.record(sp)
	}
	want := fmt.Sprintf(`{"accepted":%d}`, lp.cfg.BeaconBatch)
	if resp.StatusCode != http.StatusOK || string(bytes.TrimSpace(body)) != want {
		rec.err = fmt.Errorf("collector %d answered %d: %.100s", c, resp.StatusCode, body)
		return rec
	}
	lp.mu.Lock()
	lp.posted[c]++
	lp.accepted[i] = true
	lp.mu.Unlock()
	return rec
}

// postedRecords is how many records were accepted by all collectors.
func (lp *livePlane) postedRecords() int {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	n := 0
	for _, p := range lp.posted {
		n += p
	}
	return n * lp.cfg.BeaconBatch
}

func (lp *livePlane) shippedRecords() int {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	n := 0
	for _, s := range lp.shipped {
		n += s
	}
	return n
}

// cycle runs one refresh: every shipper's PollOnce (concurrently, as
// independent collectors would), the receiver's Tick, then — when a
// generation was published and swap is set — a map read and Swap on
// every replica, as each serving node does on its own.
func (lp *livePlane) cycle(ctx context.Context, swap bool) (cycleRec, error) {
	id := lp.tr.id()
	rec := cycleRec{start: time.Now()}
	reps := make([]federation.ShipReport, len(lp.ships))
	errs := make([]error, len(lp.ships))
	durs := make([]time.Duration, len(lp.ships))
	var wg sync.WaitGroup
	for i, sh := range lp.ships {
		wg.Add(1)
		go func() {
			defer wg.Done()
			durs[i], errs[i] = lp.tr.timed("federation.ship", id, func(sid uint64) error {
				var err error
				reps[i], err = sh.PollOnce(withSpan(ctx, spanCtx{id: sid, req: id}))
				return err
			})
		}()
	}
	wg.Wait()
	lp.mu.Lock()
	for i := range lp.ships {
		lp.shipS.add(durs[i].Seconds())
		lp.shipped[i] += reps[i].Records
		lp.shipTotal.Segments += reps[i].Segments
		lp.shipTotal.Bytes += reps[i].Bytes
		lp.shipTotal.Records += reps[i].Records
		lp.shipTotal.Probes += reps[i].Probes
		lp.shipTotal.Rewinds += reps[i].Rewinds
		rec.records += reps[i].Records
	}
	rec.shipped = slices.Clone(lp.shipped)
	lp.mu.Unlock()
	for _, err := range errs {
		if err != nil {
			return rec, err
		}
	}
	var refresh live.Refresh
	d, err := lp.tr.timed("federation.tick", id, func(uint64) error {
		var err error
		refresh, err = lp.recv.Tick()
		return err
	})
	if err != nil {
		return rec, fmt.Errorf("tick: %w", err)
	}
	if refresh.Published {
		lp.tickS.add(d.Seconds())
		gen := refresh.Generation
		rec.gen = gen.Seq
		rec.published = time.Now()
		if swap {
			err := lp.f.replicas(func(sw *cellmap.Swappable, hist *history.Index) error {
				var m *cellmap.Map
				d, err := lp.tr.timed("cellmap.reload", id, func(uint64) error {
					var err error
					m, err = live.ReadGenerationMap(gen)
					return err
				})
				if err != nil {
					return err
				}
				lp.reloadS.add(d.Seconds())
				d, _ = lp.tr.timed("cellmap.swap", id, func(uint64) error {
					sw.Swap(m, gen.Seq)
					return nil
				})
				lp.swapUS.add(float64(d) / float64(time.Microsecond))
				_, err = lp.tr.timed("history.refresh", id, func(uint64) error { return hist.Refresh() })
				return err
			})
			if err != nil {
				return rec, fmt.Errorf("swap %s: %w", gen.Name(), err)
			}
		}
		m, err := live.ReadGenerationMap(gen)
		if err != nil {
			return rec, fmt.Errorf("reference read %s: %w", gen.Name(), err)
		}
		lp.ref.put(gen.Seq, m)
	}
	rec.end = time.Now()
	lp.tr.interval("cycle", id, 0, id, rec.start, rec.end)
	lp.mu.Lock()
	if rec.gen != 0 {
		lp.gens = append(lp.gens, rec.gen)
	}
	lp.cycles = append(lp.cycles, rec)
	lp.cycleS.add(rec.end.Sub(rec.start).Seconds())
	lp.mu.Unlock()
	return rec, nil
}

// genBack returns the generation back steps behind the newest the
// receiver published.
func (lp *livePlane) genBack(back int) (uint64, bool) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if back >= len(lp.gens) {
		return 0, false
	}
	return lp.gens[len(lp.gens)-1-back], true
}

// foldedGen returns the first generation that folded the ordinal-th batch
// of collector c, or 0 when none did.
func (lp *livePlane) foldedGen(c, ordinal int) uint64 {
	need := (ordinal + 1) * lp.cfg.BeaconBatch
	lp.mu.Lock()
	defer lp.mu.Unlock()
	for _, cy := range lp.cycles {
		if cy.shipped[c] >= need {
			return cy.gen
		}
	}
	return 0
}

// beaconDue draws n open-loop Poisson batch offsets at rate per second.
func beaconDue(rng *rand.Rand, n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// foldCheck rebuilds the window from every batch the collectors accepted
// and checks the receiver's last published generation against it: the
// window in its checkpoint must hold exactly those records (each folded
// once), and its map must equal one built from them directly.
func (lp *livePlane) foldCheck(rep *report) error {
	win := live.NewMultiWindow(live.DefaultWindowDays)
	for i, ok := range lp.accepted {
		if !ok {
			continue
		}
		src := fmt.Sprintf("edge-%d", i%collectors)
		if _, err := logio.Decode(bytes.NewReader(lp.batches[i]), false, func(rec beacon.Record) error {
			win.Add(src, rec)
			return nil
		}); err != nil {
			return err
		}
	}
	gen, ok, err := lp.store.Current()
	if err != nil || !ok {
		return fmt.Errorf("no current generation: %v", err)
	}
	raw, err := os.ReadFile(gen.Path(federation.CheckpointFile))
	if err != nil {
		return err
	}
	var ck struct {
		Window live.MultiWindowState `json:"window"`
	}
	if err := json.Unmarshal(raw, &ck); err != nil {
		return fmt.Errorf("decode %s: %w", federation.CheckpointFile, err)
	}
	got, err := live.RestoreMultiWindow(ck.Window, live.DefaultWindowDays)
	if err != nil {
		return err
	}
	rep.gate("exactly_once", got.Merged().Equal(win.Merged()),
		"%s folds %d records, the accepted batches hold %d", gen.Name(), got.Records(), win.Records())
	want, err := mapbuild.Build(win.Merged(), classify.DefaultThreshold, win.Period(), lp.side)
	if err != nil {
		return err
	}
	wantB, err := mapBytes(want)
	if err != nil {
		return err
	}
	gotB, err := mapBytes(lp.ref.get(gen.Seq))
	if err != nil {
		return err
	}
	rep.gate("live_map_equal", bytes.Equal(wantB, gotB), "%s differs from a map built from the accepted records", gen.Name())
	return nil
}

// recvCounter reads one of the receiver's own counters.
func (lp *livePlane) recvCounter(name string) uint64 {
	return lp.recvReg.Counter(name, "").Value()
}

// firstAnswerAt maps each generation g to the earliest time a current-map
// answer carried a generation ≥ g.
func firstAnswerAt(res []lookupRes) map[uint64]time.Time {
	type ans struct {
		at  time.Time
		gen uint64
	}
	var as []ans
	for i := range res {
		r := &res[i]
		if r.err == nil && r.status == http.StatusOK && r.req.kind != kGen {
			as = append(as, ans{r.done, answerGen(r.body)})
		}
	}
	slices.SortFunc(as, func(a, b ans) int { return a.at.Compare(b.at) })
	out := make(map[uint64]time.Time)
	var seen uint64
	for _, a := range as {
		for g := seen + 1; g <= a.gen; g++ {
			out[g] = a.at
		}
		seen = max(seen, a.gen)
	}
	return out
}
