package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cellspot/internal/aschar"
	"cellspot/internal/beacon"
	"cellspot/internal/cellmap"
	"cellspot/internal/demand"
	"cellspot/internal/history"
	"cellspot/internal/live"
	"cellspot/internal/mapbuild"
	"cellspot/internal/netaddr"
	"cellspot/internal/pipeline"
	"cellspot/internal/snapshot"
	"cellspot/internal/world"
)

// period labels every map the benchmark builds.
const period = "2016-12"

// layerAcc collects per-layer values; each reported figure is the median
// of what was added under its name.
type layerAcc struct {
	mu   sync.Mutex
	v    map[string]*samples
	unit map[string]string
}

func newLayerAcc() *layerAcc {
	return &layerAcc{v: make(map[string]*samples), unit: make(map[string]string)}
}

func (a *layerAcc) add(name, unit string, v float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.v[name]
	if s == nil {
		s = new(samples)
		a.v[name] = s
	}
	s.add(v)
	a.unit[name] = unit
}

func (a *layerAcc) addDur(name string, d time.Duration) { a.add(name, "s", d.Seconds()) }

func (a *layerAcc) metrics(out map[string]metric) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for name, s := range a.v {
		out[name] = metric{Value: s.median(), Unit: a.unit[name], Samples: len(*s)}
	}
}

// paperConfig is the paper's parameter set at the run's scale, with every
// generator seeded from the run's seed.
func paperConfig(cfg config) pipeline.Config {
	pc := pipeline.DefaultConfig()
	pc.World.Scale = cfg.Scale
	pc.World.Seed = cfg.Seed
	pc.Beacon.Seed = cfg.Seed + 1
	pc.Beacon.TotalHits = cfg.Hits
	pc.Demand.Seed = cfg.Seed + 2
	return pc
}

func mapInputs(r *pipeline.Result) mapbuild.Inputs {
	return mapbuild.Inputs{
		Demand: r.Demand,
		Rules: aschar.Rules{
			MinCellDU: r.Config.MinCellDU,
			MinHits:   r.Config.MinHits,
			Snapshot:  r.World.Snapshot,
		},
		ASOf:      r.ASOf,
		CountryOf: r.CountryOf,
	}
}

// sideInputs are the live loop's map-build inputs — DEMAND, the AS rules,
// the block→AS and AS→country tables — copied out of the paper run so the
// world itself can be dropped before the serve phase. A serving node's
// process does not hold the world; keeping it in this one would make every
// GC of the serving path scan it.
func sideInputs(r *pipeline.Result) mapbuild.Inputs {
	asOf := make(map[netaddr.Block]uint32, len(r.World.BlockIndex))
	country := make(map[uint32]string)
	for b, bi := range r.World.BlockIndex {
		asOf[b] = bi.ASN
		if _, seen := country[bi.ASN]; !seen {
			if c, ok := r.CountryOf(bi.ASN); ok {
				country[bi.ASN] = c
			}
		}
	}
	in := mapInputs(r)
	in.ASOf = func(b netaddr.Block) (uint32, bool) {
		a, ok := asOf[b]
		return a, ok
	}
	in.CountryOf = func(a uint32) (string, bool) {
		c, ok := country[a]
		return c, ok
	}
	return in
}

// offlineRun is one paper run plus map export.
type offlineRun struct {
	res   *pipeline.Result
	built *cellmap.Map
	read  *cellmap.Map // the published map read back
	gen   snapshot.Generation
	dur   time.Duration
}

// trim drops the parts of the paper run's result that set-up does not use
// (it needs the world and DEMAND), so the process does not carry them
// through the later phases.
func (o *offlineRun) trim() {
	r := o.res
	r.Beacon, r.Daily, r.Detected, r.Stats, r.Networks = nil, nil, nil, nil, nil
	r.Macro, r.Affinity, r.ResolverUsage, r.PublicDNS, r.RDNS = nil, nil, nil, nil, nil
	o.built = nil
}

// runOffline performs one timed paper run: world generation through the
// published map read back. Untraced it calls pipeline.Run; traced it calls
// the same stages one by one so each gets a span and an allocation count.
func runOffline(cfg config, tr *tracer, store *snapshot.Store, pl *layerAcc) (*offlineRun, error) {
	pc := paperConfig(cfg)
	out := &offlineRun{}
	root := tr.id()
	start := time.Now()
	var err error
	if tr.active() {
		out.res, err = stagedRun(pc, tr, root, pl)
	} else {
		out.res, err = pipeline.Run(pc)
	}
	if err != nil {
		return nil, err
	}
	d, err := tr.timed("mapbuild.build", root, func(uint64) error {
		out.built, err = mapbuild.Build(out.res.Beacon, pc.Threshold, period, mapInputs(out.res))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("mapbuild: %w", err)
	}
	pl.addDur("mapbuild.build_s", d)
	out.gen, err = publishMap(tr, root, store, out.built, pl)
	if err != nil {
		return nil, err
	}
	d, err = tr.timed("cellmap.read", root, func(uint64) error {
		out.read, err = live.ReadGenerationMap(out.gen)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("read back: %w", err)
	}
	pl.addDur("cellmap.read_s", d)
	out.dur = time.Since(start)
	tr.interval("offline.run", root, 0, 0, start, start.Add(out.dur))
	return out, nil
}

// publishMap publishes m into store as a new generation with its history
// metadata, the way every publisher in the program does.
func publishMap(tr *tracer, parent uint64, store *snapshot.Store, m *cellmap.Map, pl *layerAcc) (snapshot.Generation, error) {
	var gen snapshot.Generation
	d, err := tr.timed("snapshot.publish", parent, func(id uint64) error {
		var err error
		gen, err = store.Publish(func(dir string) error {
			wd, err := tr.timed("cellmap.write", id, func(uint64) error {
				f, err := os.Create(filepath.Join(dir, live.MapFile))
				if err != nil {
					return err
				}
				if err := m.Write(f); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			})
			if err != nil {
				return err
			}
			pl.addDur("cellmap.write_s", wd)
			return history.WriteMeta(dir, history.GenMeta{
				BuiltUnix: time.Now().Unix(), Entries: m.Len(), Period: m.Period,
				Threshold: m.Threshold, RAT: m.HasRAT(),
			})
		})
		return err
	})
	if err != nil {
		return gen, fmt.Errorf("publish: %w", err)
	}
	pl.addDur("snapshot.publish_s", d)
	if fi, err := os.Stat(gen.Path(live.MapFile)); err == nil {
		pl.add("cellmap.map_bytes", "bytes", float64(fi.Size()))
	}
	pl.add("cellmap.entries", "count", float64(m.Len()))
	return gen, nil
}

// allocMB returns the bytes allocated so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// stagedRun is pipeline.Run split at its public stage boundaries.
func stagedRun(pc pipeline.Config, tr *tracer, root uint64, pl *layerAcc) (*pipeline.Result, error) {
	stage := func(name, layer string, fn func() error) error {
		a0 := allocMB()
		d, err := tr.timed(name, root, func(uint64) error { return fn() })
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		pl.addDur(layer+"_s", d)
		pl.add(layer+"_alloc_mb", "MB", allocMB()-a0)
		return nil
	}
	wc := pc.World
	wc.Parallelism = pc.Parallelism
	var w *world.World
	if err := stage("world.generate", "world.generate", func() (err error) {
		w, err = world.Generate(wc)
		return err
	}); err != nil {
		return nil, err
	}
	r := &pipeline.Result{Config: pc, World: w}
	bc := pc.Beacon
	bc.Parallelism = pc.Parallelism
	if err := stage("beacon.generate", "beacon.generate", func() (err error) {
		r.Beacon, err = beacon.Generate(w, bc)
		return err
	}); err != nil {
		return nil, err
	}
	dc := pc.Demand
	dc.Parallelism = pc.Parallelism
	if err := stage("demand.generate", "demand.generate", func() (err error) {
		r.Daily, err = demand.GenerateDaily(w, dc)
		return err
	}); err != nil {
		return nil, err
	}
	if err := stage("demand.smooth", "demand.smooth", func() (err error) {
		r.Demand, err = r.Daily.Smooth()
		return err
	}); err != nil {
		return nil, err
	}
	if err := stage("classify.classify", "classify.classify", func() error {
		return r.Classify(pc.Threshold)
	}); err != nil {
		return nil, err
	}
	if err := stage("pipeline.analyze", "pipeline.analyze", func() error {
		r.Analyze()
		return nil
	}); err != nil {
		return nil, err
	}
	return r, nil
}

// mapBytes serializes m; equal bytes mean equal maps.
func mapBytes(m *cellmap.Map) ([]byte, error) {
	var b bytes.Buffer
	if err := m.Write(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// offlinePhase runs the paper path cfg.OfflineReps times and gates its
// outputs: each read-back map equals the built one, and every repetition
// of the same seed yields the same map digest. It returns the last run.
func offlinePhase(cfg config, tr *tracer, dir string, rep *report, pl *layerAcc) (*offlineRun, samples, error) {
	store, err := snapshot.Open(filepath.Join(dir, "offline-store"))
	if err != nil {
		return nil, nil, err
	}
	var durs samples
	var last *offlineRun
	var first string
	for i := 0; i < cfg.OfflineReps; i++ {
		last = nil // let the previous run's world go before the next one
		runtime.GC()
		o, err := runOffline(cfg, tr, store, pl)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			return nil, nil, err
		}
		durs.add(o.dur.Seconds())
		rep.Extra[fmt.Sprintf("offline_rep%d_s", i)] = metric{Value: o.dur.Seconds(), Unit: "s", Samples: 1}
		built, err := mapBytes(o.built)
		if err != nil {
			return nil, nil, err
		}
		read, err := mapBytes(o.read)
		if err != nil {
			return nil, nil, err
		}
		rep.gate("offline_readback_equal", bytes.Equal(built, read), "published map read back differs from the built map (rep %d)", i)
		d := digest(built)
		if i == 0 {
			first = d
			rep.Inputs["offline_map_sha256"] = d
		}
		rep.gate("offline_digest_repeats", d == first, "map digest %s differs from first repetition %s", d, first)
		last = o
	}
	return last, durs, nil
}
