package federation

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"cellspot/internal/beacon"
	"cellspot/internal/history"
	"cellspot/internal/live"
	"cellspot/internal/logio"
)

// TestReceiverGenerationDayRange: a generation the receiver publishes
// records its window's day span in meta.json, exactly as the spool
// updater's generations do, so /v1/generations shows it on a federation
// deployment too.
func TestReceiverGenerationDayRange(t *testing.T) {
	recs := genRecords(200, 17000, 4)
	spool := t.TempDir()
	writeSpool(t, spool, recs, len(recs), false)
	raw, err := os.ReadFile(filepath.Join(spool, "beacon-0000.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	p := newPlane(t, t.TempDir())
	if st, resp := postSegment(t, p.srv.URL, wholeShard("c-1", raw), raw); st != 200 {
		t.Fatalf("segment: %d %+v", st, resp)
	}
	res, err := p.recv.Tick()
	if err != nil || !res.Published {
		t.Fatalf("tick: %+v err=%v", res, err)
	}

	win := live.NewMultiWindow(live.DefaultWindowDays)
	for _, rec := range recs {
		win.Add("c-1", rec)
	}
	first, last, ok := win.DayRange()
	if !ok {
		t.Fatal("reference window is empty")
	}
	metaRaw, err := os.ReadFile(res.Generation.Path(history.MetaFile))
	if err != nil {
		t.Fatal(err)
	}
	var meta history.GenMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.DayFirst != first || meta.DayLast != last {
		t.Fatalf("meta.json day window = %q..%q, want %q..%q", meta.DayFirst, meta.DayLast, first, last)
	}
}

func wholeShard(collector string, raw []byte) Manifest {
	return Manifest{
		Format: ManifestFormat, Collector: collector, Shard: "beacon-0000.jsonl",
		Length: int64(len(raw)), SHA256: Digest(raw),
		Records: bytes.Count(raw, []byte("\n")), ShardSize: int64(len(raw)),
	}
}

// TestReadCompatFederationCheckpoint restarts a receiver on a store the
// receiver published before the spool updater shared its checkpoint
// format (testdata/federation-checkpoint-v1, see its README). Each of two
// collectors had shipped the first half of its shard, cut after the first
// newline past the middle. The restarted receiver must hold exactly those
// halves and acked offsets; once the second halves arrive, the next tick
// must publish the map a from-scratch build over both whole shards gives.
func TestReadCompatFederationCheckpoint(t *testing.T) {
	src := filepath.Join("testdata", "federation-checkpoint-v1")
	storeDir := t.TempDir()
	if err := os.CopyFS(storeDir, os.DirFS(filepath.Join(src, "store"))); err != nil {
		t.Fatal(err)
	}
	p := newPlane(t, storeDir)

	want := live.NewMultiWindow(live.DefaultWindowDays)
	wantAcked := make(map[string]int64)
	shards := make(map[string][]byte)
	var all []beacon.Record
	for _, c := range []string{"c-1", "c-2"} {
		raw, err := os.ReadFile(filepath.Join(src, "shards", c, "beacon-0000.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		half := len(raw) / 2
		cut := bytes.IndexByte(raw[half:], '\n') + half + 1
		if _, err := logio.Decode(bytes.NewReader(raw), false, func(rec beacon.Record) error {
			all = append(all, rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := logio.Decode(bytes.NewReader(raw[:cut]), false, func(rec beacon.Record) error {
			want.Add(c, rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		wantAcked[c+"/beacon-0000.jsonl"] = int64(cut)
		shards[c] = raw
	}

	p.recv.mu.Lock()
	got, acked, durable := p.recv.win, maps.Clone(p.recv.acked), maps.Clone(p.recv.durable)
	p.recv.mu.Unlock()
	if !got.Merged().Equal(want.Merged()) || got.Records() != want.Records() || got.Period() != want.Period() {
		t.Fatalf("recovered window: %d records, period %q; want %d, %q",
			got.Records(), got.Period(), want.Records(), want.Period())
	}
	if !maps.Equal(got.RecordsBySource(), want.RecordsBySource()) {
		t.Fatalf("recovered per-collector records %v, want %v", got.RecordsBySource(), want.RecordsBySource())
	}
	if !maps.Equal(acked, wantAcked) || !maps.Equal(durable, wantAcked) {
		t.Fatalf("recovered acked %v durable %v, want %v", acked, durable, wantAcked)
	}

	for c, raw := range shards {
		key := c + "/beacon-0000.jsonl"
		seg := raw[wantAcked[key]:]
		m := wholeShard(c, raw)
		m.Offset, m.Length, m.SHA256 = wantAcked[key], int64(len(seg)), Digest(seg)
		m.Records = bytes.Count(seg, []byte("\n"))
		if st, resp := postSegment(t, p.srv.URL, m, seg); st != 200 || resp.Duplicate {
			t.Fatalf("%s second half: %d %+v", c, st, resp)
		}
	}
	res, err := p.recv.Tick()
	if err != nil || !res.Published {
		t.Fatalf("tick: %+v err=%v", res, err)
	}
	if res.Generation.Seq != 2 {
		t.Fatalf("published generation %d, want 2", res.Generation.Seq)
	}
	if !bytes.Equal(currentMapBytes(t, p.store), offlineMap(t, all)) {
		t.Fatal("map after recovery differs from a from-scratch build over every shipped record")
	}
}
