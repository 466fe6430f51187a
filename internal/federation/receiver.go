package federation

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/live"
	"cellspot/internal/logio"
	"cellspot/internal/mapbuild"
	"cellspot/internal/obs"
	"cellspot/internal/snapshot"
)

const (
	// CheckpointFile is the checkpoint inside a generation (the one every
	// window source writes): the multi-source window state plus every
	// collector's acked offsets, published atomically with the map built
	// from that exact window.
	CheckpointFile = live.CheckpointFile

	// maxPending bounds segments folded between publishes; beyond it the
	// receiver answers 429 until the next Tick drains the backlog into a
	// generation.
	maxPending = 4096
	// DefaultRetryAfter is the Retry-After advertised on 429.
	DefaultRetryAfter = 2 * time.Second
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

// ReceiverConfig parameterizes a Receiver.
type ReceiverConfig struct {
	// Settings are the engine knobs shared with the spool updater.
	live.Settings
	// Inputs is the side data for the map-build chain; Inputs.ASOf is
	// required.
	Inputs mapbuild.Inputs
	// Store receives published generations (required).
	Store *snapshot.Store
	// MaxInflight bounds concurrently decoded segment requests (0 =
	// unbounded). Each in-flight request may buffer a full segment before
	// the fold even starts, so under a shipper stampede this gate sheds
	// with 429 + Retry-After before memory does; refused shippers back off
	// and retry, exactly as for the pending-backlog 429.
	MaxInflight int
	// RetryAfter is advertised on 429 (DefaultRetryAfter when <= 0).
	RetryAfter time.Duration
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
}

// Receiver is the aggregation side of the federation plane and the
// segment source of the fold→publish engine: it accepts framed segments
// from any number of shippers, folds each exactly once into a
// collector-keyed sliding window, and hands the engine each tick's window
// together with the acked offsets that produced it. Safe for concurrent
// use.
type Receiver struct {
	cfg ReceiverConfig
	eng *live.Engine

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
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	eng, err := live.NewEngine("federation", cfg.Settings, cfg.Inputs, cfg.Store)
	if err != nil {
		return nil, err
	}
	win, ck, published, err := eng.Recover()
	if err != nil {
		return nil, err
	}
	r := &Receiver{
		cfg:       cfg,
		eng:       eng,
		win:       win,
		acked:     make(map[string]int64, len(ck.Acked)),
		durable:   make(map[string]int64, len(ck.Acked)),
		published: published,
	}
	maps.Copy(r.acked, ck.Acked)
	maps.Copy(r.durable, ck.Acked)
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
	r.gRecords.Set(int64(win.Records()))
	r.gSources.Set(int64(len(win.RecordsBySource())))
	return r, nil
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
	if r.draining || r.pending >= maxPending {
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
// and has the engine build the map and publish map + checkpoint atomically
// outside the lock. Once the generation is live, acked becomes durable and
// pending resets. A tick with nothing pending publishes nothing — unless
// the store is still empty, in which case a first (possibly empty)
// generation goes out so the serving side has something to load.
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
	ck := live.Checkpoint{Window: r.win.State(), Acked: maps.Clone(r.acked)}
	windowRecords := r.win.Records()
	r.mu.Unlock()

	res, err := r.eng.Publish(agg, ck)

	r.mu.Lock()
	r.draining = false
	if err == nil {
		r.published = true
		r.pending -= folded
		r.gPending.Set(int64(r.pending))
		maps.Copy(r.durable, ck.Acked)
	}
	r.mu.Unlock()
	if err != nil {
		return live.Refresh{}, err
	}
	r.mPublish.Inc()
	r.hPublish.Observe(time.Since(start).Seconds())
	r.eng.Prune()
	res.WindowRecords = windowRecords
	return res, nil
}

// Run ticks immediately, then on every interval until ctx is done (see
// live.Engine.Run).
func (r *Receiver) Run(ctx context.Context) { r.eng.Run(ctx, r.Tick) }

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
