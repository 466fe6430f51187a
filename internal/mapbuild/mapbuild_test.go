package mapbuild

import (
	"bytes"
	"fmt"
	"testing"

	"cellspot/internal/aschar"
	"cellspot/internal/beacon"
	"cellspot/internal/cellmap"
	"cellspot/internal/classify"
	"cellspot/internal/demand"
	"cellspot/internal/netaddr"
	"cellspot/internal/world"
)

// oracleBuild is the chain Build used to run: the full per-AS rollup over
// all of DEMAND, the AS filter over it, and cellmap.Build over the
// detected blocks of the surviving ASes. Build must match it byte for byte.
func oracleBuild(t testing.TB, agg *beacon.Aggregate, threshold float64, period string, in Inputs) *cellmap.Map {
	t.Helper()
	cls, err := classify.New(threshold)
	if err != nil {
		t.Fatal(err)
	}
	detected := cls.Classify(agg)
	stats := aschar.BuildStats(aschar.Inputs{
		Detected: detected,
		Beacon:   agg,
		Demand:   in.Demand,
		ASOf:     in.ASOf,
	})
	fr := aschar.Filter(stats, in.Rules)
	allowed := make(map[uint32]bool, len(fr.AfterRule3))
	for _, a := range fr.AfterRule3 {
		allowed[a] = true
	}
	kept := make(netaddr.Set)
	for b := range detected {
		if a, ok := in.ASOf(b); ok && allowed[a] {
			kept.Add(b)
		}
	}
	m, err := cellmap.Build(threshold, period, cellmap.Inputs{
		Detected:  kept,
		Beacon:    agg,
		Demand:    in.Demand,
		ASOf:      in.ASOf,
		CountryOf: in.CountryOf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mapBytes(t testing.TB, m *cellmap.Map) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkEqual builds agg both ways and fails unless the written maps are
// byte-equal. It returns the map's entry count.
func checkEqual(t *testing.T, agg *beacon.Aggregate, in Inputs) int {
	t.Helper()
	got, err := Build(agg, classify.DefaultThreshold, "test", in)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleBuild(t, agg, classify.DefaultThreshold, "test", in)
	if g, w := mapBytes(t, got), mapBytes(t, want); !bytes.Equal(g, w) {
		t.Fatalf("Build differs from the full-rollup chain: %d vs %d bytes, %d vs %d entries",
			len(g), len(w), got.Len(), want.Len())
	}
	return got.Len()
}

// worldInputs generates a world and its DEMAND at (seed, scale) and
// returns the world with the paper's map-build side inputs.
func worldInputs(t testing.TB, seed uint64, scale float64) (*world.World, Inputs) {
	t.Helper()
	wcfg := world.DefaultConfig()
	wcfg.Seed = seed
	wcfg.Scale = scale
	w, err := world.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := demand.DefaultGenConfig()
	dcfg.Seed = seed + 2
	ds, err := demand.Generate(w, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, Inputs{
		Demand: ds,
		Rules:  aschar.DefaultRules(w.Snapshot),
		ASOf: func(b netaddr.Block) (uint32, bool) {
			if bi := w.BlockIndex[b]; bi != nil {
				return bi.ASN, true
			}
			return 0, false
		},
		CountryOf: func(a uint32) (string, bool) {
			as, ok := w.Registry.Lookup(a)
			return as.Country, ok
		},
	}
}

// TestBuildMatchesFullRollupOffline: on whole-month aggregates, the
// filter-only rollup publishes the same map bytes as the full rollup.
func TestBuildMatchesFullRollupOffline(t *testing.T) {
	for _, scale := range []float64{0.005, 0.01} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("scale=%g/seed=%d", scale, seed), func(t *testing.T) {
				w, in := worldInputs(t, seed, scale)
				bcfg := beacon.DefaultGenConfig()
				bcfg.Seed = seed + 1
				agg, err := beacon.Generate(w, bcfg)
				if err != nil {
					t.Fatal(err)
				}
				if n := checkEqual(t, agg, in); n == 0 {
					t.Fatal("empty map: the comparison proves nothing")
				}
			})
		}
	}
}

// TestBuildMatchesFullRollupGrowingWindow: windows grown record by record
// from a beacon stream, as the live loop sees them, match at every
// checkpoint.
func TestBuildMatchesFullRollupGrowingWindow(t *testing.T) {
	w, in := worldInputs(t, 2, 0.005)
	// Scale the hit rule to the stream so the filter bites as it grows.
	in.Rules.MinHits = 30
	in.Rules.MinCellDU = 0.01
	bcfg := beacon.DefaultGenConfig()
	bcfg.TotalHits = 60_000
	bcfg.BaseHits = 4
	seq, err := beacon.Stream(w, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	const every = 5_000
	agg := beacon.NewAggregate()
	n, checks := 0, 0
	for rec := range seq {
		agg.AddRecord(rec)
		if n++; n%every == 0 {
			checkEqual(t, agg, in)
			checks++
		}
	}
	last := checkEqual(t, agg, in)
	if checks < 5 || last == 0 {
		t.Fatalf("%d checks over %d records, final map %d entries: stream too small to prove anything", checks, n, last)
	}
}

// TestBuildASOfCallsFollowWindow is the machine-independent cost gate: one
// Build asks ASOf at most once per aggregate block plus once per detected
// block, however large DEMAND is. A walk of DEMAND would blow the budget.
func TestBuildASOfCallsFollowWindow(t *testing.T) {
	const (
		demandBlocks = 100_000
		aggBlocks    = 500
	)
	raw := make(map[netaddr.Block]float64, demandBlocks)
	for i := 0; i < demandBlocks; i++ {
		raw[netaddr.V4Block(byte(i>>16), byte(i>>8), byte(i))] = float64(1 + i%7)
	}
	ds, err := demand.NewDataset(raw)
	if err != nil {
		t.Fatal(err)
	}
	agg := beacon.NewAggregate()
	for i := 0; i < aggBlocks; i++ {
		b := netaddr.V4Block(byte(i>>16), byte(i>>8), byte(i))
		cell := 0
		if i%3 == 0 {
			cell = 90 // ratio 0.9: detected
		}
		agg.Add(b, 400, 100, cell)
	}
	calls := 0
	in := Inputs{
		Demand: ds,
		Rules:  aschar.Rules{MinCellDU: 0.1, MinHits: 300},
		ASOf: func(b netaddr.Block) (uint32, bool) {
			calls++
			return uint32(1 + b.Key%17), true
		},
	}
	if demandBlocks < 100*agg.Blocks() {
		t.Fatalf("DEMAND (%d blocks) must be >= 100x the aggregate (%d)", demandBlocks, agg.Blocks())
	}
	cls, err := classify.New(classify.DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	detected := cls.Classify(agg).Len()
	budget := agg.Blocks() + detected

	m, err := Build(agg, classify.DefaultThreshold, "test", in)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() == 0 {
		t.Fatal("empty map: the gate proves nothing")
	}
	if calls > budget {
		t.Fatalf("Build made %d ASOf calls; budget is %d (aggregate %d + detected %d)",
			calls, budget, agg.Blocks(), detected)
	}
	// The gate must be able to fail: the full-rollup chain walks DEMAND.
	calls = 0
	oracleBuild(t, agg, classify.DefaultThreshold, "test", in)
	if calls <= budget {
		t.Fatalf("full-rollup chain made %d ASOf calls, within the %d budget: gate is blind", calls, budget)
	}
}
