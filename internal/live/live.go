// Package live closes the loop between the beacon collectors and the map
// server. Its Engine is the one fold→publish loop of the program: records
// fold into a MultiWindow of per-day BEACON buckets (the paper's seven-day
// smoothing), and on every refresh tick the engine runs the reproduction's
// classify → AS-filter → cellmap.Build chain over the windowed aggregate
// and publishes the result as a new generation in a snapshot store. A
// serving process (cellmapd) polls the store and hot-swaps generations
// with zero lookup downtime.
//
// Two sources feed the engine: the Updater here, which tails beacond's
// spool files as they are written, and the federation receiver, which
// folds segments shipped by remote collectors. Alongside every published
// map the engine writes a Checkpoint — window buckets plus each source's
// read positions (spool file positions, acked shard offsets) — inside the
// same generation directory. The two are published atomically, so the
// invariant "CURRENT's checkpoint describes exactly the records baked into
// CURRENT's map" holds across crashes, and a restarted source resumes from
// the positions of the last published generation instead of re-reading
// everything.
package live

import (
	"context"
	"fmt"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/mapbuild"
	"cellspot/internal/obs"
	"cellspot/internal/snapshot"
)

// Config parameterizes an Updater.
type Config struct {
	// SpoolDir is beacond's spool directory (required).
	SpoolDir string
	// SpoolPrefix is the spool file prefix (DefaultSpoolPrefix when "").
	SpoolPrefix string
	// Settings are the engine knobs shared with the federation receiver.
	Settings
	// Inputs is the side data for the map-build chain; Inputs.ASOf is
	// required.
	Inputs mapbuild.Inputs
	// Store receives published generations (required).
	Store *snapshot.Store
	// Metrics, when non-nil, registers the live-refresh metric families:
	//
	//	live_refresh_total          refresh ticks attempted
	//	live_refresh_errors_total   ticks that failed
	//	live_publish_total          generations published
	//	live_refresh_seconds        tail→build→publish latency histogram
	//	live_tailed_records_total   spool records consumed
	//	live_stale_records_total    records dropped as older than the window
	//	live_window_stragglers_total  records dropped on arrival as already
	//	                            older than the window (late/out-of-order
	//	                            days; see MultiWindow's retention
	//	                            contract)
	//	live_spool_resets_total     spool files found truncated/rewritten
	//	live_spool_oversize_lines_total  lines skipped as over the line cap
	//	live_window_records         records in the current window
	//	live_window_blocks          distinct blocks in the current window
	Metrics *obs.Registry
}

// Updater is the spool source of the fold→publish engine: it tails
// beacond's spool into a window under LocalSource and hands each tick's
// window to the engine. It is not safe for concurrent use; run it from one
// goroutine (Run does).
type Updater struct {
	eng  *Engine
	win  *MultiWindow
	tail *Tailer

	// published reports whether the store holds a generation — recovered
	// at startup or published by us — so idle ticks can skip republishing.
	published bool

	mTicks      *obs.Counter
	mErrors     *obs.Counter
	mPublish    *obs.Counter
	mTailed     *obs.Counter
	mStale      *obs.Counter
	mStragglers *obs.Counter
	mResets     *obs.Counter
	mOversize   *obs.Counter
	gRecords    *obs.Gauge
	gBlocks     *obs.Gauge
	hRefresh    *obs.Histogram
}

// NewUpdater validates cfg and recovers the updater's window and spool
// positions from the checkpoint of the store's current generation, if any
// (see Engine.Recover).
func NewUpdater(cfg Config) (*Updater, error) {
	if cfg.SpoolDir == "" {
		return nil, fmt.Errorf("live: Config.SpoolDir is required")
	}
	if cfg.SpoolPrefix == "" {
		cfg.SpoolPrefix = DefaultSpoolPrefix
	}
	eng, err := NewEngine("live", cfg.Settings, cfg.Inputs, cfg.Store)
	if err != nil {
		return nil, err
	}
	win, ck, published, err := eng.Recover()
	if err != nil {
		return nil, err
	}
	u := &Updater{
		eng:       eng,
		win:       win,
		tail:      NewTailer(cfg.SpoolDir, cfg.SpoolPrefix),
		published: published,
	}
	u.tail.Restore(ck.Files)
	if reg := cfg.Metrics; reg != nil {
		u.mTicks = reg.Counter("live_refresh_total", "Refresh ticks attempted.")
		u.mErrors = reg.Counter("live_refresh_errors_total", "Refresh ticks that failed.")
		u.mPublish = reg.Counter("live_publish_total", "Map generations published.")
		u.mTailed = reg.Counter("live_tailed_records_total", "Spool records consumed.")
		u.mStale = reg.Counter("live_stale_records_total", "Records dropped as older than the window.")
		u.mStragglers = reg.Counter("live_window_stragglers_total", "Records dropped on arrival as already older than the window (late or out-of-order days).")
		u.mResets = reg.Counter("live_spool_resets_total", "Spool files found truncated or rewritten, forcing a re-read.")
		u.mOversize = reg.Counter("live_spool_oversize_lines_total", "Spool lines skipped as longer than the line cap.")
		u.gRecords = reg.Gauge("live_window_records", "Records in the current window.")
		u.gBlocks = reg.Gauge("live_window_blocks", "Distinct blocks in the current window.")
		u.hRefresh = reg.Histogram("live_refresh_seconds", "Tail, build and publish latency of one refresh.", nil)
	}
	return u, nil
}

// Tick runs one refresh: tail the spool, fold new records into the window,
// rebuild the map, and publish it (with the updater's checkpoint) as a new
// generation. A tick that consumes no new records publishes nothing —
// unless the store is still empty, in which case a first (possibly empty)
// generation is published so the serving side has something to load.
func (u *Updater) Tick() (Refresh, error) {
	start := time.Now()
	u.mTicks.Inc()
	res, err := u.tick()
	if err != nil {
		u.mErrors.Inc()
		return res, err
	}
	if res.Published {
		u.mPublish.Inc()
		u.hRefresh.Observe(time.Since(start).Seconds())
	}
	return res, nil
}

func (u *Updater) tick() (Refresh, error) {
	staleBefore, stragglersBefore := u.win.Stale(), u.win.Stragglers()
	resetsBefore, oversizeBefore := u.tail.Resets(), u.tail.Oversize()
	n, err := u.tail.Poll(func(rec beacon.Record) { u.win.Add(LocalSource, rec) })
	u.mTailed.Add(uint64(n))
	u.mStale.Add(uint64(u.win.Stale() - staleBefore))
	u.mStragglers.Add(uint64(u.win.Stragglers() - stragglersBefore))
	u.mResets.Add(uint64(u.tail.Resets() - resetsBefore))
	u.mOversize.Add(uint64(u.tail.Oversize() - oversizeBefore))
	u.gRecords.Set(int64(u.win.Records()))
	if err != nil {
		return Refresh{}, err
	}
	if n == 0 && u.published {
		return Refresh{WindowRecords: u.win.Records()}, nil
	}

	agg := u.win.Merged()
	u.gBlocks.Set(int64(agg.Blocks()))
	res, err := u.eng.Publish(agg, Checkpoint{Window: u.win.State(), Files: u.tail.Positions()})
	if err != nil {
		return Refresh{}, err
	}
	u.published = true
	u.eng.Prune()
	res.NewRecords, res.WindowRecords = n, u.win.Records()
	return res, nil
}

// Run ticks immediately, then on every interval until ctx is done (see
// Engine.Run).
func (u *Updater) Run(ctx context.Context) { u.eng.Run(ctx, u.Tick) }
