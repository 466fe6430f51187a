package live

import (
	"encoding/json"
	"testing"

	"cellspot/internal/beacon"
	"cellspot/internal/mapbuild"
	"cellspot/internal/netaddr"
	"cellspot/internal/netinfo"
	"cellspot/internal/obs"
)

// TestWindowStragglersVsPruned pins the retention contract's two drop
// classes apart, on a single-source window. Before the fix, the window
// folded both into one Stale() tally: a record arriving already older than the window (a straggler — an
// operational signal, something is lagging) was indistinguishable from a
// record aged out by normal retention (business as usual). This test fails
// against that behavior.
func TestWindowStragglersVsPruned(t *testing.T) {
	cell := netinfo.ConnCellular.String()
	w := NewMultiWindow(3)
	w.Add(LocalSource, recAt(100, "10.0.0.1", cell))
	w.Add(LocalSource, recAt(101, "10.0.1.1", cell))

	// Day 104 prunes days 100 and 101: retention, not stragglers.
	w.Add(LocalSource, recAt(104, "10.0.4.1", cell))
	if w.Stale() != 2 {
		t.Fatalf("stale after slide = %d, want 2", w.Stale())
	}
	if w.Stragglers() != 0 {
		t.Fatalf("stragglers after slide = %d, want 0: pruned records are not stragglers", w.Stragglers())
	}

	// A day-101 record now arrives too late: that IS a straggler.
	if w.Add(LocalSource, recAt(101, "10.0.1.2", cell)) {
		t.Fatal("stale record accepted")
	}
	if w.Stragglers() != 1 {
		t.Fatalf("stragglers after late arrival = %d, want 1", w.Stragglers())
	}
	if w.Stale() != 3 {
		t.Fatalf("stale after late arrival = %d, want 3 (stragglers count into stale too)", w.Stale())
	}
}

// TestUpdaterStragglerMetric: a straggler record in the spool must surface
// in live_window_stragglers_total, separately from live_stale_records_total.
func TestUpdaterStragglerMetric(t *testing.T) {
	cell := netinfo.ConnCellular.String()
	dir := t.TempDir()
	recs := []beacon.Record{
		recAt(100, "10.0.0.1", cell),
		recAt(120, "10.0.2.1", cell), // advances the anchor far past day 100
		recAt(101, "10.0.1.1", cell), // straggler: older than 120-7+1
	}
	writeShards(t, dir, 0, recs, 1, false)
	reg := obs.NewRegistry()
	u, err := NewUpdater(Config{
		SpoolDir: dir,
		Inputs:   mapbuild.Inputs{ASOf: func(netaddr.Block) (uint32, bool) { return 1, true }},
		Store:    mustOpenStore(t),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Tick(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("live_window_stragglers_total", "").Value(); v != 1 {
		t.Fatalf("live_window_stragglers_total = %d, want 1", v)
	}
	if v := reg.Counter("live_stale_records_total", "").Value(); v != 2 {
		t.Fatalf("live_stale_records_total = %d, want 2 (1 pruned + 1 straggler)", v)
	}
}

// TestMultiWindowMatchesSingleSourceWindow: source attribution must never
// perturb the merged aggregate — folding the same records spread across
// three collectors and all under one source must yield identical merged
// counts and the same period label. This is the invariant
// behind "federated build == single-collector build".
func TestMultiWindowMatchesSingleSourceWindow(t *testing.T) {
	fx := newFixture(t, 30_000)
	single := NewMultiWindow(DefaultWindowDays)
	multi := NewMultiWindow(DefaultWindowDays)
	sources := []string{"c-a", "c-b", "c-c"}
	for i, rec := range fx.Records {
		single.Add(LocalSource, rec)
		multi.Add(sources[i%len(sources)], rec)
	}
	if single.Records() != multi.Records() {
		t.Fatalf("records: single %d, multi %d", single.Records(), multi.Records())
	}
	if single.Period() != multi.Period() {
		t.Fatalf("period: single %q, multi %q", single.Period(), multi.Period())
	}
	if single.Stragglers() != multi.Stragglers() {
		t.Fatalf("stragglers: single %d, multi %d", single.Stragglers(), multi.Stragglers())
	}
	sa, ma := single.Merged(), multi.Merged()
	if !sa.Equal(ma) {
		t.Fatal("merged aggregates diverge between single and multi-source windows")
	}
	per := multi.RecordsBySource()
	total := 0
	for _, src := range sources {
		if per[src] == 0 {
			t.Fatalf("source %s has no retained records", src)
		}
		total += per[src]
	}
	if total != multi.Records() {
		t.Fatalf("per-source records sum %d != total %d", total, multi.Records())
	}
}

// TestMultiWindowGlobalAnchor: the window anchors at the newest day across
// ALL sources, so a collector lagging beyond the span sees its records
// straggle even though they are that collector's newest data.
func TestMultiWindowGlobalAnchor(t *testing.T) {
	cell := netinfo.ConnCellular.String()
	m := NewMultiWindow(3)
	m.Add("fresh", recAt(200, "10.0.0.1", cell))
	m.Add("fresh", recAt(210, "10.1.0.1", cell)) // anchor at 210, prunes day 200
	if m.Records() != 1 || m.Stale() != 1 {
		t.Fatalf("records=%d stale=%d, want 1/1", m.Records(), m.Stale())
	}
	// The lagging collector's day-205 record is older than 210-3+1 = 208.
	if m.Add("laggard", recAt(205, "10.2.0.1", cell)) {
		t.Fatal("laggard's stale day accepted")
	}
	if m.Stragglers() != 1 {
		t.Fatalf("stragglers = %d, want 1", m.Stragglers())
	}
	if _, ok := m.RecordsBySource()["laggard"]; ok {
		t.Fatal("laggard retained records it never folded")
	}
	// In-window days from the laggard still fold.
	if !m.Add("laggard", recAt(209, "10.2.1.1", cell)) {
		t.Fatal("laggard's in-window day rejected")
	}
	if m.RecordsBySource()["laggard"] != 1 {
		t.Fatalf("laggard records = %d, want 1", m.RecordsBySource()["laggard"])
	}
}

// TestMultiWindowStateRoundTrip: State → JSON → Restore must reproduce the
// window exactly (merged aggregate, record counts, period), and the
// serialization must be deterministic.
func TestMultiWindowStateRoundTrip(t *testing.T) {
	fx := newFixture(t, 20_000)
	m := NewMultiWindow(DefaultWindowDays)
	sources := []string{"eu-1", "us-1", "ap-1"}
	for i, rec := range fx.Records {
		m.Add(sources[i%len(sources)], rec)
	}
	raw1, err := json.Marshal(m.State())
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := json.Marshal(m.State())
	if err != nil {
		t.Fatal(err)
	}
	if string(raw1) != string(raw2) {
		t.Fatal("state serialization is not deterministic")
	}
	var st MultiWindowState
	if err := json.Unmarshal(raw1, &st); err != nil {
		t.Fatal(err)
	}
	got, err := RestoreMultiWindow(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Records() != m.Records() || got.Period() != m.Period() {
		t.Fatalf("restored records=%d period=%q, want %d/%q",
			got.Records(), got.Period(), m.Records(), m.Period())
	}
	if !got.Merged().Equal(m.Merged()) {
		t.Fatal("restored merged aggregate diverges")
	}
	want := m.RecordsBySource()
	for src, n := range got.RecordsBySource() {
		if want[src] != n {
			t.Fatalf("source %s restored %d records, want %d", src, n, want[src])
		}
	}

	// Restoring into a narrower span prunes to fit.
	narrow, err := RestoreMultiWindow(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Records() >= m.Records() {
		t.Fatalf("narrowed restore kept %d of %d records", narrow.Records(), m.Records())
	}
	if narrow.Days() != 1 {
		t.Fatalf("narrowed days = %d", narrow.Days())
	}
}
