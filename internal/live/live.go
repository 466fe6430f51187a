// Package live closes the loop between the beacon collector and the map
// server: it tails beacond's spool files as they are written, folds records
// into a sliding window of per-day BEACON buckets (the paper's seven-day
// smoothing), and on every refresh tick runs the reproduction's existing
// classify → AS-filter → cellmap.Build chain over the windowed aggregate,
// publishing the result as a new generation in a snapshot store. A serving
// process (cellmapd) polls the store and hot-swaps generations with zero
// lookup downtime.
//
// Alongside every published map the updater checkpoints its own state —
// window buckets and per-spool-file read positions — inside the same
// generation directory. The two are published atomically, so the invariant
// "CURRENT's checkpoint describes exactly the records baked into CURRENT's
// map" holds across crashes, and a restarted updater resumes from the spool
// positions of the last published generation instead of re-reading the
// whole spool.
package live

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/cellmap"
	"cellspot/internal/classify"
	"cellspot/internal/history"
	"cellspot/internal/mapbuild"
	"cellspot/internal/obs"
	"cellspot/internal/snapshot"
)

const (
	// MapFile is the published map's file name inside a generation.
	MapFile = "cellmap.jsonl"
	// CheckpointFile is the updater state file inside a generation.
	CheckpointFile = "checkpoint.json"

	checkpointFormat = "cellspot-live-checkpoint/1"

	// DefaultInterval is the refresh cadence of Run.
	DefaultInterval = 30 * time.Second
	// DefaultSpoolPrefix matches beacond's spool file naming.
	DefaultSpoolPrefix = "beacon"
	// DefaultKeep is how many generations retention pruning preserves.
	DefaultKeep = 5
)

// Config parameterizes an Updater.
type Config struct {
	// SpoolDir is beacond's spool directory (required).
	SpoolDir string
	// SpoolPrefix is the spool file prefix (DefaultSpoolPrefix when "").
	SpoolPrefix string
	// WindowDays is the sliding window span (DefaultWindowDays when <= 0).
	WindowDays int
	// Interval is the Run refresh cadence (DefaultInterval when <= 0).
	Interval time.Duration
	// Threshold is the classifier operating point
	// (classify.DefaultThreshold when 0).
	Threshold float64
	// Inputs is the side data for the map-build chain; Inputs.ASOf is
	// required.
	Inputs mapbuild.Inputs
	// Store receives published generations (required).
	Store *snapshot.Store
	// Keep bounds retained generations (DefaultKeep when <= 0).
	Keep int
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
	//	                            days; see Window's retention contract)
	//	live_spool_resets_total     spool files found truncated/rewritten
	//	live_spool_oversize_lines_total  lines skipped as over the line cap
	//	live_window_records         records in the current window
	//	live_window_blocks          distinct blocks in the current window
	Metrics *obs.Registry
	// Logf, when non-nil, receives operational log lines from Run.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() error {
	if c.SpoolDir == "" {
		return fmt.Errorf("live: Config.SpoolDir is required")
	}
	if c.Store == nil {
		return fmt.Errorf("live: Config.Store is required")
	}
	if c.Inputs.ASOf == nil {
		return fmt.Errorf("live: Config.Inputs.ASOf is required")
	}
	if c.SpoolPrefix == "" {
		c.SpoolPrefix = DefaultSpoolPrefix
	}
	if c.WindowDays <= 0 {
		c.WindowDays = DefaultWindowDays
	}
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.Threshold == 0 {
		c.Threshold = classify.DefaultThreshold
	}
	if c.Keep <= 0 {
		c.Keep = DefaultKeep
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// Updater drives the live refresh loop. It is not safe for concurrent use;
// run it from one goroutine (Run does).
type Updater struct {
	cfg  Config
	win  *Window
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
// positions from the checkpoint of the store's current generation, if any.
// A current generation without a readable checkpoint falls back to an empty
// window and a full spool re-read — correctness never depends on the
// checkpoint, it only saves work.
func NewUpdater(cfg Config) (*Updater, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	u := &Updater{
		cfg:  cfg,
		win:  NewWindow(cfg.WindowDays),
		tail: NewTailer(cfg.SpoolDir, cfg.SpoolPrefix),
	}
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
	cur, ok, err := cfg.Store.Current()
	if err != nil {
		return nil, err
	}
	if ok {
		u.published = true
		if err := u.recover(cur); err != nil {
			cfg.Logf("live: checkpoint of %s unreadable (%v); re-reading spool", cur.Name(), err)
			u.win = NewWindow(cfg.WindowDays)
			u.tail = NewTailer(cfg.SpoolDir, cfg.SpoolPrefix)
		}
	}
	return u, nil
}

// Refresh reports what one tick did.
type Refresh struct {
	// Published is false when the tick found no new records and left the
	// current generation in place.
	Published bool
	// Generation is the published generation (zero when !Published).
	Generation snapshot.Generation
	// NewRecords is how many spool records this tick consumed.
	NewRecords int
	// WindowRecords is the record count of the window after the tick.
	WindowRecords int
	// Entries is the published map's prefix count (0 when !Published).
	Entries int
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
	n, err := u.tail.Poll(func(rec beacon.Record) { u.win.Add(rec) })
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
	m, err := mapbuild.Build(agg, u.cfg.Threshold, u.win.Period(), u.cfg.Inputs)
	if err != nil {
		return Refresh{}, err
	}
	ck, err := u.checkpoint()
	if err != nil {
		return Refresh{}, err
	}
	gen, err := u.cfg.Store.Publish(func(dir string) error {
		f, err := os.Create(filepath.Join(dir, MapFile))
		if err != nil {
			return err
		}
		if err := m.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, CheckpointFile), ck, 0o644); err != nil {
			return err
		}
		meta := history.GenMeta{
			BuiltUnix: time.Now().Unix(),
			Entries:   m.Len(),
			Period:    m.Period,
			Threshold: u.cfg.Threshold,
			RAT:       m.HasRAT(),
		}
		meta.DayFirst, meta.DayLast, _ = u.win.DayRange()
		return history.WriteMeta(dir, meta)
	})
	if err != nil {
		return Refresh{}, err
	}
	u.published = true
	if _, err := u.cfg.Store.Prune(u.cfg.Keep); err != nil {
		// Retention is housekeeping; the new generation is already live.
		u.cfg.Logf("live: prune: %v", err)
	}
	return Refresh{
		Published:     true,
		Generation:    gen,
		NewRecords:    n,
		WindowRecords: u.win.Records(),
		Entries:       m.Len(),
	}, nil
}

// Run ticks immediately, then on every interval until ctx is done. Tick
// errors are logged and counted, not fatal: a transient spool or disk
// failure must not kill the refresh loop.
func (u *Updater) Run(ctx context.Context) error {
	t := time.NewTicker(u.cfg.Interval)
	defer t.Stop()
	for {
		res, err := u.Tick()
		switch {
		case err != nil:
			u.cfg.Logf("live: refresh: %v", err)
		case res.Published:
			u.cfg.Logf("live: published %s: %d entries from %d window records (+%d new)",
				res.Generation.Name(), res.Entries, res.WindowRecords, res.NewRecords)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
		}
	}
}

// checkpoint state serialization. Buckets and blocks are sorted (see
// encodeBuckets) so the bytes are deterministic for a given window state.

type checkpointState struct {
	Format     string             `json:"format"`
	WindowDays int                `json:"window_days"`
	Latest     int64              `json:"latest_day"`
	Buckets    []DayState         `json:"buckets"`
	Files      map[string]FilePos `json:"files"`
}

func (u *Updater) checkpoint() ([]byte, error) {
	st := checkpointState{
		Format:     checkpointFormat,
		WindowDays: u.win.days,
		Latest:     u.win.latest,
		Buckets:    encodeBuckets(u.win.buckets),
		Files:      u.tail.Positions(),
	}
	if !u.win.nonEmpty {
		st.Latest = 0
	}
	return json.Marshal(st)
}

// recover restores window and tail positions from a generation's
// checkpoint.
func (u *Updater) recover(gen snapshot.Generation) error {
	raw, err := os.ReadFile(gen.Path(CheckpointFile))
	if err != nil {
		return err
	}
	var st checkpointState
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}
	if st.Format != checkpointFormat {
		return fmt.Errorf("unknown checkpoint format %q", st.Format)
	}
	win := NewWindow(u.cfg.WindowDays)
	buckets, records, err := decodeBuckets(st.Buckets)
	if err != nil {
		return err
	}
	win.buckets = buckets
	win.records = records
	if len(st.Buckets) > 0 || st.Latest != 0 {
		win.latest = st.Latest
		win.nonEmpty = true
		win.prune() // cfg.WindowDays may be narrower than the checkpoint's
	}
	u.win = win
	u.tail = NewTailer(u.cfg.SpoolDir, u.cfg.SpoolPrefix)
	u.tail.Restore(st.Files)
	return nil
}

// ReadGenerationMap loads the published map of a generation.
func ReadGenerationMap(gen snapshot.Generation) (*cellmap.Map, error) {
	f, err := os.Open(gen.Path(MapFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cellmap.Read(f)
}
