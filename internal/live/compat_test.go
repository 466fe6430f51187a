package live

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"cellspot/internal/beacon"
	"cellspot/internal/mapbuild"
	"cellspot/internal/netaddr"
	"cellspot/internal/snapshot"
)

// TestReadCompatLiveCheckpoint restarts the updater on a store it
// published in the spool updater's own checkpoint format,
// cellspot-live-checkpoint/1 in checkpoint.json (testdata/
// live-checkpoint-v1, see its README), after tailing a plain and a gzip
// shard. The restarted updater must hold exactly the window and spool
// positions of those two shards; when a third shard lands, the next tick
// must read only that shard and publish the map a from-scratch updater
// over all three gives, now with the shared checkpoint format.
func TestReadCompatLiveCheckpoint(t *testing.T) {
	src := filepath.Join("testdata", "live-checkpoint-v1")
	dir := t.TempDir()
	spool, storeDir := filepath.Join(dir, "spool"), filepath.Join(dir, "store")
	for to, from := range map[string]string{spool: "spool", storeDir: "store"} {
		if err := os.CopyFS(to, os.DirFS(filepath.Join(src, from))); err != nil {
			t.Fatal(err)
		}
	}
	inputs := mapbuild.Inputs{ASOf: func(netaddr.Block) (uint32, bool) { return 64496, true }}
	store, err := snapshot.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(Config{SpoolDir: spool, Inputs: inputs, Store: store})
	if err != nil {
		t.Fatal(err)
	}

	ref := NewTailer(spool, DefaultSpoolPrefix)
	want := NewMultiWindow(DefaultWindowDays)
	if _, err := ref.Poll(func(rec beacon.Record) { want.Add(LocalSource, rec) }); err != nil {
		t.Fatal(err)
	}
	if !u.win.Merged().Equal(want.Merged()) || u.win.Records() != want.Records() || u.win.Period() != want.Period() {
		t.Fatalf("recovered window: %d records, period %q; want %d, %q",
			u.win.Records(), u.win.Period(), want.Records(), want.Period())
	}
	if !maps.Equal(u.win.RecordsBySource(), want.RecordsBySource()) {
		t.Fatalf("recovered sources %v, want %v", u.win.RecordsBySource(), want.RecordsBySource())
	}
	if !maps.Equal(u.tail.Positions(), ref.Positions()) {
		t.Fatalf("recovered spool positions %v, want %v", u.tail.Positions(), ref.Positions())
	}

	next, err := os.ReadFile(filepath.Join(src, "next", "beacon-0002.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spool, "beacon-0002.jsonl"), next, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := u.Tick()
	if err != nil || !res.Published {
		t.Fatalf("tick: %+v err=%v", res, err)
	}
	if n := bytes.Count(next, []byte("\n")); res.NewRecords != n {
		t.Fatalf("tick consumed %d records, want only the new shard's %d", res.NewRecords, n)
	}
	if ck, err := readCheckpoint(res.Generation); err != nil || len(ck.Files) != 3 {
		t.Fatalf("new generation's checkpoint: %+v err=%v", ck.Files, err)
	}

	fresh, err := NewUpdater(Config{SpoolDir: spool, Inputs: inputs, Store: mustOpenStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := fresh.Tick()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(res.Generation.Path(MapFile))
	if err != nil {
		t.Fatal(err)
	}
	wantMap, err := os.ReadFile(scratch.Generation.Path(MapFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(wantMap) == 0 || !bytes.Equal(got, wantMap) {
		t.Fatal("map after recovery differs from a from-scratch build")
	}
}
