package federation

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/classify"
	"cellspot/internal/history"
	"cellspot/internal/live"
	"cellspot/internal/logio"
	"cellspot/internal/mapbuild"
	"cellspot/internal/obs"
	"cellspot/internal/snapshot"
)

const (
	// CheckpointFile is the federation checkpoint inside a generation: the
	// multi-source window state plus every collector's acked offsets,
	// published atomically with the map built from that exact window.
	CheckpointFile = "federation.json"

	checkpointFormat = "cellspot-federation-checkpoint/1"

	// DefaultMaxPending bounds segments folded between publishes before
	// the receiver pushes back with 429.
	DefaultMaxPending = 4096
	// DefaultRetryAfter is the Retry-After advertised on 429.
	DefaultRetryAfter = 2 * time.Second
	// DefaultTickInterval is the Run publish cadence.
	DefaultTickInterval = 30 * time.Second
)

// SegmentResponse is the receiver's JSON reply to a segment POST. Acked is
// authoritative: on 409 the shipper must resume from it.
type SegmentResponse struct {
	// Acked is how far the receiver has accepted this (collector, shard),
	// in bytes. Advisory until a generation publishes.
	Acked int64 `json:"acked"`
	// Durable is how much of Acked a published checkpoint covers — bytes
	// that survive a receiver crash.
	Durable int64 `json:"durable"`
	// Duplicate marks a 200 that folded nothing because the segment was
	// entirely behind Acked (a replay).
	Duplicate bool `json:"duplicate,omitempty"`
	// Error carries the reason on non-200 responses.
	Error string `json:"error,omitempty"`
}

// federationCheckpoint is CheckpointFile's on-disk form.
type federationCheckpoint struct {
	Format string                `json:"format"`
	Window live.MultiWindowState `json:"window"`
	// Acked maps "<collector>/<shard>" to the folded byte offset as of
	// this generation. Keys sort deterministically in encoding/json.
	Acked map[string]int64 `json:"acked"`
}

// ReceiverConfig parameterizes a Receiver.
type ReceiverConfig struct {
	// WindowDays is the sliding window span (live.DefaultWindowDays when
	// <= 0).
	WindowDays int
	// Threshold is the classifier operating point
	// (classify.DefaultThreshold when 0).
	Threshold float64
	// Inputs is the side data for the map-build chain; Inputs.ASOf is
	// required.
	Inputs mapbuild.Inputs
	// Store receives published generations (required).
	Store *snapshot.Store
	// Keep bounds retained generations (live.DefaultKeep when <= 0).
	Keep int
	// MaxPending bounds segments folded between publishes
	// (DefaultMaxPending when <= 0); beyond it the receiver answers 429
	// until the next Tick drains the backlog into a generation.
	MaxPending int
	// MaxInflight bounds concurrently decoded segment requests (0 =
	// unbounded). Each in-flight request may buffer a full segment before
	// the fold even starts, so under a shipper stampede this gate sheds
	// with 429 + Retry-After before memory does; refused shippers back off
	// and retry, exactly as for the pending-backlog 429.
	MaxInflight int
	// RetryAfter is advertised on 429 (DefaultRetryAfter when <= 0).
	RetryAfter time.Duration
	// Interval is the Run publish cadence (DefaultTickInterval when <= 0).
	Interval time.Duration
	// Metrics, when non-nil, registers the receiver metric families:
	//
	//	federation_recv_segments_total        segments folded
	//	federation_recv_records_total         records folded into the window
	//	federation_recv_bytes_total           payload bytes folded
	//	federation_recv_duplicates_total      replayed segments absorbed
	//	federation_recv_rejects_total         409 offset mismatches
	//	federation_recv_digest_mismatch_total segments refused on digest
	//	federation_recv_bad_requests_total    malformed segment requests
	//	federation_recv_throttled_total       429 backpressure responses
	//	federation_recv_shed_total            429 admission-control refusals
	//	federation_recv_probes_total          zero-length probes answered
	//	federation_recv_publish_total         generations published
	//	federation_recv_bad_lines_total       malformed payload lines skipped
	//	federation_recv_pending_segments      segments folded since last publish
	//	federation_recv_sources               collectors in the current window
	//	federation_recv_window_records        records in the current window
	//	federation_recv_fold_seconds          per-segment fold latency
	//	federation_recv_publish_seconds       build+publish latency
	Metrics *obs.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Receiver is the aggregation side of the federation plane: it accepts
// framed segments from any number of shippers, folds each exactly once
// into a collector-keyed sliding window, and publishes map generations
// whose checkpoint binds the window state to the acked offsets that
// produced it. Safe for concurrent use.
type Receiver struct {
	cfg ReceiverConfig

	inflight atomic.Int64

	mu       sync.Mutex
	win      *live.MultiWindow
	acked    map[string]int64 // "<collector>/<shard>" -> folded offset
	durable  map[string]int64 // acked as of the last published generation
	pending  int              // segments folded since the last publish
	draining bool             // a Tick is snapshotting/publishing: refuse folds
	// published reports whether the store holds a generation, so idle
	// ticks can skip republishing.
	published bool

	mSegments  *obs.Counter
	mRecords   *obs.Counter
	mBytes     *obs.Counter
	mDup       *obs.Counter
	mRejects   *obs.Counter
	mDigest    *obs.Counter
	mBadReq    *obs.Counter
	mThrottled *obs.Counter
	mShed      *obs.Counter
	mProbes    *obs.Counter
	mPublish   *obs.Counter
	mBadLines  *obs.Counter
	gPending   *obs.Gauge
	gSources   *obs.Gauge
	gRecords   *obs.Gauge
	hFold      *obs.Histogram
	hPublish   *obs.Histogram
}

// NewReceiver validates cfg and recovers window state and acked offsets
// from the federation checkpoint of the store's current generation, if
// any. A current generation without a readable checkpoint falls back to an
// empty window and zero offsets — shippers will simply re-ship, and their
// sealed spools make that safe.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("federation: ReceiverConfig.Store is required")
	}
	if cfg.Inputs.ASOf == nil {
		return nil, fmt.Errorf("federation: ReceiverConfig.Inputs.ASOf is required")
	}
	if cfg.WindowDays <= 0 {
		cfg.WindowDays = live.DefaultWindowDays
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = classify.DefaultThreshold
	}
	if cfg.Keep <= 0 {
		cfg.Keep = live.DefaultKeep
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultTickInterval
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	r := &Receiver{
		cfg:     cfg,
		win:     live.NewMultiWindow(cfg.WindowDays),
		acked:   make(map[string]int64),
		durable: make(map[string]int64),
	}
	if reg := cfg.Metrics; reg != nil {
		r.mSegments = reg.Counter("federation_recv_segments_total", "Segments folded into the window.")
		r.mRecords = reg.Counter("federation_recv_records_total", "Records folded into the window.")
		r.mBytes = reg.Counter("federation_recv_bytes_total", "Payload bytes folded.")
		r.mDup = reg.Counter("federation_recv_duplicates_total", "Replayed segments acknowledged without folding.")
		r.mRejects = reg.Counter("federation_recv_rejects_total", "Segments rejected with 409 for an offset mismatch.")
		r.mDigest = reg.Counter("federation_recv_digest_mismatch_total", "Segments refused because the payload digest did not match the manifest.")
		r.mBadReq = reg.Counter("federation_recv_bad_requests_total", "Malformed segment requests refused.")
		r.mThrottled = reg.Counter("federation_recv_throttled_total", "Segments pushed back with 429 while draining.")
		r.mShed = reg.Counter("federation_recv_shed_total", "Segment requests refused by admission control (in-flight bound).")
		r.mProbes = reg.Counter("federation_recv_probes_total", "Zero-length durability probes answered.")
		r.mPublish = reg.Counter("federation_recv_publish_total", "Map generations published.")
		r.mBadLines = reg.Counter("federation_recv_bad_lines_total", "Malformed payload lines skipped while folding.")
		r.gPending = reg.Gauge("federation_recv_pending_segments", "Segments folded since the last publish.")
		r.gSources = reg.Gauge("federation_recv_sources", "Collectors with records in the current window.")
		r.gRecords = reg.Gauge("federation_recv_window_records", "Records in the current window.")
		r.hFold = reg.Histogram("federation_recv_fold_seconds", "Per-segment verify+fold latency.", nil)
		r.hPublish = reg.Histogram("federation_recv_publish_seconds", "Build and publish latency of one tick.", nil)
	}
	cur, ok, err := cfg.Store.Current()
	if err != nil {
		return nil, err
	}
	if ok {
		r.published = true
		if err := r.recover(cur); err != nil {
			cfg.Logf("federation: checkpoint of %s unreadable (%v); starting empty, shippers will re-ship", cur.Name(), err)
		}
	}
	return r, nil
}

// recover restores the window and offsets from a generation's federation
// checkpoint.
func (r *Receiver) recover(gen snapshot.Generation) error {
	raw, err := os.ReadFile(gen.Path(CheckpointFile))
	if err != nil {
		return err
	}
	var ck federationCheckpoint
	if err := json.Unmarshal(raw, &ck); err != nil {
		return err
	}
	if ck.Format != checkpointFormat {
		return fmt.Errorf("unknown checkpoint format %q", ck.Format)
	}
	win, err := live.RestoreMultiWindow(ck.Window, r.cfg.WindowDays)
	if err != nil {
		return err
	}
	r.win = win
	r.acked = make(map[string]int64, len(ck.Acked))
	r.durable = make(map[string]int64, len(ck.Acked))
	for k, v := range ck.Acked {
		r.acked[k] = v
		r.durable[k] = v
	}
	r.gRecords.Set(int64(win.Records()))
	r.gSources.Set(int64(len(win.RecordsBySource())))
	return nil
}

// Router is the mux surface MountRoutes needs; *http.ServeMux and
// httpmw.Mux both satisfy it.
type Router interface {
	HandleFunc(pattern string, handler func(http.ResponseWriter, *http.Request))
}

// MountRoutes registers the federation routes on mux.
func (r *Receiver) MountRoutes(mux Router) {
	mux.HandleFunc("POST "+SegmentsPath, r.handleSegments)
	mux.HandleFunc("GET "+StatusPath, r.handleStatus)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (r *Receiver) handleSegments(w http.ResponseWriter, req *http.Request) {
	// Admission control before the body is read: each in-flight request
	// may buffer a full segment, so the bound is a memory ceiling.
	if max := int64(r.cfg.MaxInflight); max > 0 {
		if r.inflight.Add(1) > max {
			r.inflight.Add(-1)
			r.mShed.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(int(r.cfg.RetryAfter.Round(time.Second)/time.Second)))
			writeJSON(w, http.StatusTooManyRequests, SegmentResponse{Error: "receiver at capacity, retry"})
			return
		}
		defer r.inflight.Add(-1)
	}
	start := time.Now()
	m, payload, err := DecodeSegment(http.MaxBytesReader(w, req.Body, MaxManifestBytes+MaxSegmentBytes+2))
	if err != nil {
		if req.Context().Err() != nil {
			return // the sender hung up mid-body: nobody to answer, nothing malformed
		}
		r.mBadReq.Inc()
		writeJSON(w, http.StatusBadRequest, SegmentResponse{Error: err.Error()})
		return
	}
	status, resp := r.accept(m, payload)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(int(r.cfg.RetryAfter.Round(time.Second)/time.Second)))
	}
	if status == http.StatusOK && !m.IsProbe() && !resp.Duplicate {
		r.hFold.Observe(time.Since(start).Seconds())
	}
	writeJSON(w, status, resp)
}

// accept applies the exactly-once fold rules to one decoded segment and
// returns the HTTP status plus response body.
func (r *Receiver) accept(m Manifest, payload []byte) (int, SegmentResponse) {
	key := m.Collector + "/" + m.Shard

	r.mu.Lock()
	defer r.mu.Unlock()
	acked, durable := r.acked[key], r.durable[key]

	if m.IsProbe() {
		// Probes are read-only: answer them even while draining, so a
		// shipper's durability loop keeps converging during publishes.
		r.mProbes.Inc()
		if m.Offset > acked {
			// The shipper believes more was acked than we do — we lost
			// unpublished acks in a restart. Send it back.
			return http.StatusConflict, SegmentResponse{Acked: acked, Durable: durable, Error: "offset ahead of acked"}
		}
		return http.StatusOK, SegmentResponse{Acked: acked, Durable: durable}
	}

	// Replay: entirely behind the acked offset. Ack without folding.
	if m.Offset+m.Length <= acked {
		r.mDup.Inc()
		return http.StatusOK, SegmentResponse{Acked: acked, Durable: durable, Duplicate: true}
	}
	// Overlap or gap: only a segment starting exactly at acked can fold.
	if m.Offset != acked {
		r.mRejects.Inc()
		return http.StatusConflict, SegmentResponse{Acked: acked, Durable: durable,
			Error: fmt.Sprintf("segment at %d, acked %d", m.Offset, acked)}
	}
	// Backpressure: the window is draining into a publish, or too much is
	// pending. Folding now would either race the snapshot or grow the
	// unpublished (crash-vulnerable) backlog without bound.
	if r.draining || r.pending >= r.cfg.MaxPending {
		r.mThrottled.Inc()
		return http.StatusTooManyRequests, SegmentResponse{Acked: acked, Durable: durable, Error: "draining"}
	}
	if got := Digest(payload); got != m.SHA256 {
		r.mDigest.Inc()
		return http.StatusBadRequest, SegmentResponse{Acked: acked, Durable: durable,
			Error: fmt.Sprintf("digest mismatch: manifest %s, payload %s", m.SHA256, got)}
	}
	text := payload
	if m.Gzipped() {
		// A gzip stream cannot be decoded from a mid-stream offset, so
		// gzip shards are only acceptable whole.
		if m.Offset != 0 || m.Length != m.ShardSize {
			r.mBadReq.Inc()
			return http.StatusBadRequest, SegmentResponse{Acked: acked, Durable: durable,
				Error: "gzip shards must ship as one whole-file segment"}
		}
		zr, err := gzip.NewReader(bytes.NewReader(payload))
		if err == nil {
			text, err = readAllLimited(zr)
		}
		if err != nil {
			r.mBadReq.Inc()
			return http.StatusBadRequest, SegmentResponse{Acked: acked, Durable: durable,
				Error: "gzip payload unreadable: " + err.Error()}
		}
	}

	records := 0
	st, err := logio.Decode(bytes.NewReader(text), true, func(rec beacon.Record) error {
		r.win.Add(m.Collector, rec)
		records++
		return nil
	})
	if err != nil {
		// The digest matched, so this is not corruption in transit: the
		// payload itself has an unscannable line. Refuse it so the
		// problem surfaces at the collector instead of vanishing here.
		r.mBadReq.Inc()
		return http.StatusBadRequest, SegmentResponse{Acked: acked, Durable: durable, Error: err.Error()}
	}
	r.mBadLines.Add(uint64(st.Bad))
	r.mSegments.Inc()
	r.mRecords.Add(uint64(records))
	r.mBytes.Add(uint64(len(payload)))
	r.acked[key] = m.Offset + m.Length
	r.pending++
	r.gPending.Set(int64(r.pending))
	r.gRecords.Set(int64(r.win.Records()))
	r.gSources.Set(int64(len(r.win.RecordsBySource())))
	return http.StatusOK, SegmentResponse{Acked: r.acked[key], Durable: durable}
}

// Status is the receiver's observability snapshot.
type Status struct {
	Period     string           `json:"period"`
	Records    int              `json:"records"`
	Sources    map[string]int   `json:"sources"` // collector -> retained records
	Acked      map[string]int64 `json:"acked"`   // collector/shard -> folded offset
	Pending    int              `json:"pending_segments"`
	Stragglers int              `json:"stragglers"`
	Published  bool             `json:"published"`
}

func (r *Receiver) handleStatus(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	st := Status{
		Period:     r.win.Period(),
		Records:    r.win.Records(),
		Sources:    r.win.RecordsBySource(),
		Acked:      make(map[string]int64, len(r.acked)),
		Pending:    r.pending,
		Stragglers: r.win.Stragglers(),
		Published:  r.published,
	}
	for k, v := range r.acked {
		st.Acked[k] = v
	}
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// Tick drains the window into a new generation: it snapshots the merged
// aggregate, the window state, and the acked offsets under the lock (with
// draining set, so no fold can slip between the snapshot and the publish),
// builds the map, and publishes map + federation checkpoint atomically.
// Once the generation is live, acked becomes durable and pending resets. A
// tick with nothing pending publishes nothing — unless the store is still
// empty, in which case a first (possibly empty) generation goes out so the
// serving side has something to load.
func (r *Receiver) Tick() (live.Refresh, error) {
	start := time.Now()
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return live.Refresh{}, fmt.Errorf("federation: tick already in progress")
	}
	if r.pending == 0 && r.published {
		n := r.win.Records()
		r.mu.Unlock()
		return live.Refresh{WindowRecords: n}, nil
	}
	r.draining = true
	folded := r.pending
	agg := r.win.Merged()
	period := r.win.Period()
	ck := federationCheckpoint{
		Format: checkpointFormat,
		Window: r.win.State(),
		Acked:  make(map[string]int64, len(r.acked)),
	}
	for k, v := range r.acked {
		ck.Acked[k] = v
	}
	windowRecords := r.win.Records()
	r.mu.Unlock()

	gen, entries, err := r.publish(agg, period, ck)

	r.mu.Lock()
	r.draining = false
	if err == nil {
		r.published = true
		r.pending -= folded
		r.gPending.Set(int64(r.pending))
		for k, v := range ck.Acked {
			r.durable[k] = v
		}
	}
	r.mu.Unlock()
	if err != nil {
		return live.Refresh{}, err
	}
	r.mPublish.Inc()
	r.hPublish.Observe(time.Since(start).Seconds())
	if _, err := r.cfg.Store.Prune(r.cfg.Keep); err != nil {
		r.cfg.Logf("federation: prune: %v", err)
	}
	return live.Refresh{
		Published:     true,
		Generation:    gen,
		WindowRecords: windowRecords,
		Entries:       entries,
	}, nil
}

// publish builds the map from a drained aggregate and writes map +
// checkpoint into one staged generation.
func (r *Receiver) publish(agg *beacon.Aggregate, period string, ck federationCheckpoint) (snapshot.Generation, int, error) {
	m, err := mapbuild.Build(agg, r.cfg.Threshold, period, r.cfg.Inputs)
	if err != nil {
		return snapshot.Generation{}, 0, err
	}
	raw, err := json.Marshal(ck)
	if err != nil {
		return snapshot.Generation{}, 0, err
	}
	gen, err := r.cfg.Store.Publish(func(dir string) error {
		f, err := os.Create(filepath.Join(dir, live.MapFile))
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
		if err := os.WriteFile(filepath.Join(dir, CheckpointFile), append(raw, '\n'), 0o644); err != nil {
			return err
		}
		return history.WriteMeta(dir, history.GenMeta{
			BuiltUnix: time.Now().Unix(),
			Entries:   m.Len(),
			Period:    m.Period,
			Threshold: r.cfg.Threshold,
			RAT:       m.HasRAT(),
		})
	})
	if err != nil {
		return snapshot.Generation{}, 0, err
	}
	return gen, m.Len(), nil
}

// Run ticks on every interval until ctx is done. Tick errors are logged
// and the loop continues: a transient disk failure must not kill the
// aggregation plane.
func (r *Receiver) Run(ctx context.Context) {
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		res, err := r.Tick()
		switch {
		case err != nil:
			r.cfg.Logf("federation: tick: %v", err)
		case res.Published:
			srcs := r.SourceRecords()
			r.cfg.Logf("federation: published %s: %d entries from %d window records across %d collectors",
				res.Generation.Name(), res.Entries, res.WindowRecords, len(srcs))
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// SourceRecords returns per-collector retained record counts, sorted keys.
func (r *Receiver) SourceRecords() []SourceRecords {
	r.mu.Lock()
	per := r.win.RecordsBySource()
	r.mu.Unlock()
	keys := make([]string, 0, len(per))
	for k := range per {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]SourceRecords, 0, len(keys))
	for _, k := range keys {
		out = append(out, SourceRecords{Collector: k, Records: per[k]})
	}
	return out
}

// SourceRecords is one collector's retained record count.
type SourceRecords struct {
	Collector string `json:"collector"`
	Records   int    `json:"records"`
}

// readAllLimited reads a decompressed stream, refusing to balloon past the
// decoded-size cap implied by MaxSegmentBytes times a sanity factor.
func readAllLimited(zr *gzip.Reader) ([]byte, error) {
	const cap = int64(MaxSegmentBytes) * 64 // gzip on JSONL rarely exceeds ~20x
	var buf bytes.Buffer
	n, err := buf.ReadFrom(&limitedReader{r: zr, n: cap})
	if err != nil {
		return nil, err
	}
	if n >= cap {
		return nil, fmt.Errorf("decompressed payload over %d bytes", cap)
	}
	return buf.Bytes(), nil
}

type limitedReader struct {
	r *gzip.Reader
	n int64
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.n <= 0 {
		return 0, fmt.Errorf("federation: decompression bomb")
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}
