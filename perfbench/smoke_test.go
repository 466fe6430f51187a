package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload at the tiny size: each must emit every
// end-to-end metric with its unit, pass every correctness gate, and draw
// identical inputs when run twice with one seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole chain")
	}
	for _, wl := range workloadNames() {
		t.Run(wl, func(t *testing.T) {
			a := smokeRun(t, tiny(wl, 7, 2, false))
			b := smokeRun(t, tiny(wl, 7, 2, false))
			for k, v := range a.Inputs {
				if b.Inputs[k] != v {
					t.Errorf("input %s differs between two runs with seed 7: %s vs %s", k, v, b.Inputs[k])
				}
			}
			c := smokeRun(t, tiny(wl, 8, 2, false))
			if c.Inputs["lookup_schedule_sha256"] == a.Inputs["lookup_schedule_sha256"] {
				t.Errorf("seeds 7 and 8 drew the same lookup schedule")
			}
		})
	}
}

// TestSmokeTraced checks that a traced run emits every per-layer metric,
// writes its span file, and records spans at every layer boundary.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole chain")
	}
	rep := smokeRun(t, tiny("zipf", 7, 2, true))
	if _, err := os.Stat(rep.SpanFile); err != nil {
		t.Errorf("span file: %v", err)
	}
	seen := make(map[string]bool)
	for _, l := range rep.Layers {
		seen[l.Name] = l.Count > 0
	}
	for _, name := range []string{
		"world.generate", "beacon.generate", "demand.generate", "demand.smooth",
		"classify.classify", "pipeline.analyze", "mapbuild.build", "snapshot.publish",
		"cellmap.write", "cellmap.read", "cellmap.reload", "cellmap.swap",
		"client.single", "client.batch", "client.gen", "client.beacon",
		"gateway.lookup", "gateway.batch", "gateway.shard_call",
		"shard.lookup", "shard.batch", "history.gen_lookup", "history.refresh",
		"rum.post", "federation.ship", "federation.ship_call", "federation.segment",
		"federation.tick", "cycle", "offline.run", "lpm.build", "lpm.lookup",
	} {
		if !seen[name] {
			t.Errorf("no %s span recorded", name)
		}
	}
}

// smokeRun runs one configuration in a scratch root and checks the report
// and the contract line it prints.
func smokeRun(t *testing.T, cfg config) *report {
	t.Helper()
	cfg.Root = t.TempDir()
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run %s seed %d: %v", cfg.Workload, cfg.Seed, err)
	}
	if !rep.correct() || rep.Failed != 0 {
		t.Errorf("%d of %d operations failed; gates %v; notes: %s", rep.Failed, rep.Attempted, rep.Gates, strings.Join(rep.Notes, "; "))
	}
	var out bytes.Buffer
	if err := emit(&out, cfg, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("last line has keys other than correct/attempted/failed/metrics: %s", lines[len(lines)-1])
	}
	var ms map[string]metric
	if err := json.Unmarshal(res["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	want := endToEnd
	if cfg.Trace {
		want = perLayer
	}
	if len(ms) != len(want) {
		t.Errorf("result carries %d metrics, want %d", len(ms), len(want))
	}
	for _, w := range want {
		m, ok := ms[w.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.name)
		case m.Unit != w.unit:
			t.Errorf("metric %s unit %q, want %q", w.name, m.Unit, w.unit)
		case math.IsNaN(m.Value) || (!cfg.Trace && m.Value <= 0):
			t.Errorf("metric %s = %v", w.name, m.Value)
		}
	}
	return rep
}
