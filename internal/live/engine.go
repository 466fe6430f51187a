package live

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/cellmap"
	"cellspot/internal/classify"
	"cellspot/internal/history"
	"cellspot/internal/mapbuild"
	"cellspot/internal/snapshot"
)

const (
	// MapFile is the published map's file name inside a generation.
	MapFile = history.MapFile
	// CheckpointFile is the window checkpoint inside a generation.
	CheckpointFile = history.CheckpointFile
	// checkpointFormat stamps CheckpointFile.
	checkpointFormat = "cellspot-federation-checkpoint/1"

	// The spool updater's checkpoint before it shared the format above;
	// still read so existing stores resume without a spool re-read.
	legacyCheckpointFile   = "checkpoint.json"
	legacyCheckpointFormat = "cellspot-live-checkpoint/1"

	// LocalSource is the window source the spool updater folds tailed
	// records under.
	LocalSource = "local"

	// DefaultInterval is the refresh cadence of Run.
	DefaultInterval = 30 * time.Second
	// DefaultSpoolPrefix matches beacond's spool file naming.
	DefaultSpoolPrefix = "beacon"
	// DefaultKeep is how many generations retention pruning preserves.
	DefaultKeep = 5
)

// Settings are the fold→publish engine's knobs, shared by every window
// source: the spool updater and the federation receiver take the same
// values, and zero selects each default.
type Settings struct {
	// WindowDays is the sliding window span (DefaultWindowDays when <= 0).
	WindowDays int
	// Threshold is the classifier operating point
	// (classify.DefaultThreshold when 0).
	Threshold float64
	// Keep bounds retained generations (DefaultKeep when <= 0).
	Keep int
	// Interval is the Run refresh cadence (DefaultInterval when <= 0).
	Interval time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Engine is the fold→publish half every window source shares: it recovers
// a window from the store's current generation, builds a map from a
// drained window, publishes map and checkpoint as one generation, and runs
// the refresh loop. A source owns only how records reach its window and
// when a tick may drain it.
type Engine struct {
	Settings
	name   string // log prefix
	inputs mapbuild.Inputs
	store  *snapshot.Store
}

// NewEngine fills the defaults of s and returns an engine that builds maps
// from inputs and publishes them into store. name prefixes log lines and
// errors.
func NewEngine(name string, s Settings, inputs mapbuild.Inputs, store *snapshot.Store) (*Engine, error) {
	if store == nil {
		return nil, fmt.Errorf("%s: Store is required", name)
	}
	if inputs.ASOf == nil {
		return nil, fmt.Errorf("%s: Inputs.ASOf is required", name)
	}
	if s.WindowDays <= 0 {
		s.WindowDays = DefaultWindowDays
	}
	if s.Threshold == 0 {
		s.Threshold = classify.DefaultThreshold
	}
	if s.Keep <= 0 {
		s.Keep = DefaultKeep
	}
	if s.Interval <= 0 {
		s.Interval = DefaultInterval
	}
	if s.Logf == nil {
		s.Logf = func(string, ...any) {}
	}
	return &Engine{Settings: s, name: name, inputs: inputs, store: store}, nil
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

// Checkpoint is the fold state published inside every generation, next to
// the map built from exactly that state: the window, plus how far each
// source has read. The two are published atomically, so "CURRENT's
// checkpoint describes exactly the records baked into CURRENT's map" holds
// across crashes.
type Checkpoint struct {
	Format string           `json:"format"`
	Window MultiWindowState `json:"window"`
	// Acked maps "<collector>/<shard>" to the folded byte offset of each
	// federated shard. Keys sort deterministically in encoding/json.
	Acked map[string]int64 `json:"acked"`
	// Files holds the spool tailer's per-file read positions.
	Files map[string]FilePos `json:"files,omitempty"`
}

// legacyCheckpoint is legacyCheckpointFile's on-disk form: one source's
// buckets and the tailer positions.
type legacyCheckpoint struct {
	Format     string             `json:"format"`
	WindowDays int                `json:"window_days"`
	Latest     int64              `json:"latest_day"`
	Buckets    []DayState         `json:"buckets"`
	Files      map[string]FilePos `json:"files"`
}

// readCheckpoint decodes a generation's checkpoint, converting a legacy
// spool-updater checkpoint into the shared form.
func readCheckpoint(gen snapshot.Generation) (Checkpoint, error) {
	var ck Checkpoint
	raw, err := os.ReadFile(gen.Path(CheckpointFile))
	if errors.Is(err, fs.ErrNotExist) {
		var lc legacyCheckpoint
		if raw, err = os.ReadFile(gen.Path(legacyCheckpointFile)); err != nil {
			return ck, err
		}
		if err := json.Unmarshal(raw, &lc); err != nil {
			return ck, err
		}
		if lc.Format != legacyCheckpointFormat {
			return ck, fmt.Errorf("unknown checkpoint format %q", lc.Format)
		}
		ck = Checkpoint{Format: checkpointFormat, Files: lc.Files, Window: MultiWindowState{
			Days: lc.WindowDays, Latest: lc.Latest, NonEmpty: len(lc.Buckets) > 0 || lc.Latest != 0,
			Sources: []SourceState{{Collector: LocalSource, Buckets: lc.Buckets}},
		}}
		return ck, nil
	}
	if err != nil {
		return ck, err
	}
	if err := json.Unmarshal(raw, &ck); err != nil {
		return ck, err
	}
	if ck.Format != checkpointFormat {
		return ck, fmt.Errorf("unknown checkpoint format %q", ck.Format)
	}
	return ck, nil
}

// Recover restores the window and checkpoint of the store's current
// generation; published reports whether the store holds one. A current
// generation without a readable checkpoint yields an empty window and an
// empty checkpoint — correctness never depends on the checkpoint, it only
// saves work: the spool is re-read, shippers re-ship.
func (e *Engine) Recover() (win *MultiWindow, ck Checkpoint, published bool, err error) {
	cur, ok, err := e.store.Current()
	if err != nil || !ok {
		return NewMultiWindow(e.WindowDays), Checkpoint{}, false, err
	}
	if ck, err = readCheckpoint(cur); err == nil {
		if win, err = RestoreMultiWindow(ck.Window, e.WindowDays); err == nil {
			return win, ck, true, nil
		}
	}
	e.Logf("%s: checkpoint of %s unreadable (%v); starting from an empty window", e.name, cur.Name(), err)
	return NewMultiWindow(e.WindowDays), Checkpoint{}, true, nil
}

// Publish builds the map from agg — the merged aggregate of the window ck
// describes — and publishes it with ck through history.Publish, recording
// the window's day range in the generation metadata. Callers snapshot agg
// and ck together and call Publish without holding their fold lock.
func (e *Engine) Publish(agg *beacon.Aggregate, ck Checkpoint) (Refresh, error) {
	span := ck.Window.span()
	m, err := mapbuild.Build(agg, e.Threshold, span.Period(), e.inputs)
	if err != nil {
		return Refresh{}, err
	}
	ck.Format = checkpointFormat
	raw, err := json.Marshal(ck)
	if err != nil {
		return Refresh{}, err
	}
	var meta history.GenMeta
	meta.DayFirst, meta.DayLast, _ = span.DayRange()
	gen, err := history.Publish(e.store, m, meta, append(raw, '\n'))
	if err != nil {
		return Refresh{}, err
	}
	return Refresh{Published: true, Generation: gen, Entries: m.Len()}, nil
}

// Prune applies retention after a publish. Sources call it once they
// accept records again, so it never lengthens a receiver's drain. It is
// housekeeping — the new generation is already live — so a failure is
// logged, not returned.
func (e *Engine) Prune() {
	if _, err := e.store.Prune(e.Keep); err != nil {
		e.Logf("%s: prune: %v", e.name, err)
	}
}

// Run calls tick immediately, then on every Interval until ctx is done.
// Tick errors are logged, not fatal: a transient spool or disk failure
// must not kill the refresh loop.
func (e *Engine) Run(ctx context.Context, tick func() (Refresh, error)) {
	t := time.NewTicker(e.Interval)
	defer t.Stop()
	for {
		res, err := tick()
		switch {
		case err != nil:
			e.Logf("%s: refresh: %v", e.name, err)
		case res.Published:
			e.Logf("%s: published %s: %d entries from %d window records",
				e.name, res.Generation.Name(), res.Entries, res.WindowRecords)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
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
