package aschar

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"cellspot/internal/beacon"
	"cellspot/internal/demand"
	"cellspot/internal/netaddr"
)

// filterFields projects a stats entry onto the fields Filter reads, plus
// the hit tallies CellStats also carries.
func filterFields(s *Stats) Stats {
	return Stats{
		ASN:          s.ASN,
		CellBlocks:   s.CellBlocks,
		CellBlocks24: s.CellBlocks24,
		CellBlocks48: s.CellBlocks48,
		Hits:         s.Hits,
		APIHits:      s.APIHits,
		CellHits:     s.CellHits,
		CellDU:       s.CellDU,
	}
}

// checkCellStatsMatch asserts CellStats returns exactly BuildStats' tagged
// ASes with bit-identical filter fields, and that both filter alike.
func checkCellStatsMatch(t *testing.T, in Inputs, rules Rules) {
	t.Helper()
	full := BuildStats(in)
	cell, _ := CellStats(in)
	for a, s := range full {
		if s.CellBlocks == 0 {
			if cell[a] != nil {
				t.Errorf("AS%d: untagged AS in CellStats: %+v", a, cell[a])
			}
			continue
		}
		if cell[a] == nil {
			t.Errorf("AS%d: tagged AS missing from CellStats", a)
			continue
		}
		if got, want := filterFields(cell[a]), filterFields(s); got != want {
			t.Errorf("AS%d: CellStats %+v, BuildStats %+v", a, got, want)
		}
	}
	// CellDU was always summed in Demand.Each order; it still must be,
	// bit for bit, since BuildStats now shares CellStats' loop.
	cellDU := map[uint32]float64{}
	in.Demand.Each(func(b netaddr.Block, du float64) {
		if a, ok := in.ASOf(b); ok && in.Detected.Has(b) {
			cellDU[a] += du
		}
	})
	for a, s := range cell {
		if full[a] == nil {
			t.Errorf("AS%d: in CellStats, not in BuildStats", a)
		}
		if s.CellDU != cellDU[a] {
			t.Errorf("AS%d: CellDU %v, Demand.Each order sums %v", a, s.CellDU, cellDU[a])
		}
	}
	if got, want := Filter(cell, rules), Filter(full, rules); !reflect.DeepEqual(got, want) {
		t.Errorf("Filter(CellStats) = %+v, Filter(BuildStats) = %+v", got, want)
	}
}

func TestCellStatsMatchesBuildStatsOnFixture(t *testing.T) {
	in, snap := fixture(t)
	for _, rules := range []Rules{
		{MinCellDU: 100, MinHits: 3000, Snapshot: snap},
		{MinCellDU: 0.0001, MinHits: 15000, Snapshot: snap},
		DefaultRules(snap),
		{},
	} {
		checkCellStatsMatch(t, in, rules)
	}
}

// TestCellStatsMatchesBuildStatsRandom: many blocks per AS with DU spread
// over orders of magnitude, so any change in summation order shows up in
// CellDU's low bits. Some blocks are unmapped, demand-only, beacon-only,
// or detected without any observation at all.
func TestCellStatsMatchesBuildStatsRandom(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewPCG(seed, 29))
		agg := beacon.NewAggregate()
		raw := map[netaddr.Block]float64{}
		asOf := map[netaddr.Block]uint32{}
		det := netaddr.Set{}
		for i := 0; i < 4000; i++ {
			var b netaddr.Block
			if i%4 == 0 {
				b = netaddr.V6Block(0x20010db80000 + uint64(i))
			} else {
				b = netaddr.V4Block(byte(i>>16), byte(i>>8), byte(i))
			}
			if rng.IntN(10) != 0 {
				asOf[b] = uint32(1 + rng.IntN(40))
			}
			switch rng.IntN(4) {
			case 0: // demand only
				raw[b] = rng.ExpFloat64() * float64(int(1)<<rng.IntN(30))
			case 1: // beacon only
				agg.Add(b, 1+rng.IntN(500), rng.IntN(50), rng.IntN(50))
			case 2: // both
				raw[b] = rng.ExpFloat64() * float64(int(1)<<rng.IntN(30))
				agg.Add(b, 1+rng.IntN(500), rng.IntN(50), rng.IntN(50))
			} // case 3: neither
			if rng.IntN(3) == 0 {
				det.Add(b)
			}
		}
		ds, err := demand.NewDataset(raw)
		if err != nil {
			t.Fatal(err)
		}
		in := Inputs{
			Detected: det,
			Beacon:   agg,
			Demand:   ds,
			ASOf: func(b netaddr.Block) (uint32, bool) {
				a, ok := asOf[b]
				return a, ok
			},
		}
		checkCellStatsMatch(t, in, Rules{MinCellDU: 1000, MinHits: 5000})
	}
}

// singleAS maps every block to AS 7.
func singleAS(netaddr.Block) (uint32, bool) { return 7, true }

func TestCellStatsDetectedBlockAbsentFromDemand(t *testing.T) {
	inDemand, beaconOnly := netaddr.V4Block(50, 0, 0), netaddr.V4Block(50, 0, 1)
	agg := beacon.NewAggregate()
	agg.Add(inDemand, 100, 20, 20)
	agg.Add(beaconOnly, 100, 20, 20)
	ds, _ := demand.NewDataset(map[netaddr.Block]float64{inDemand: 1})
	in := Inputs{Detected: netaddr.NewSet(inDemand, beaconOnly), Beacon: agg, Demand: ds, ASOf: singleAS}
	stats, _ := CellStats(in)
	s := stats[7]
	if s == nil || s.CellBlocks != 2 || s.CellBlocks24 != 2 {
		t.Fatalf("beacon-only detected block not counted: %+v", s)
	}
	if s.CellDU != ds.DU(inDemand) {
		t.Errorf("CellDU = %g, want the demand block's %g alone", s.CellDU, ds.DU(inDemand))
	}
}

func TestCellStatsUnmappedDetectedBlockIgnored(t *testing.T) {
	mapped, unmapped := netaddr.V4Block(1, 1, 1), netaddr.V4Block(1, 1, 2)
	agg := beacon.NewAggregate()
	agg.Add(mapped, 10, 5, 5)
	agg.Add(unmapped, 10, 5, 5)
	ds, _ := demand.NewDataset(map[netaddr.Block]float64{mapped: 5, unmapped: 5})
	in := Inputs{
		Detected: netaddr.NewSet(mapped, unmapped),
		Beacon:   agg,
		Demand:   ds,
		ASOf: func(b netaddr.Block) (uint32, bool) {
			return 7, b == mapped
		},
	}
	stats, origin := CellStats(in)
	if len(stats) != 1 || stats[7].CellBlocks != 1 || stats[7].Hits != 10 {
		t.Errorf("stats = %+v", stats[7])
	}
	if _, ok := origin[unmapped]; ok || origin[mapped] != 7 || len(origin) != 1 {
		t.Errorf("origin = %v", origin)
	}
}

// An AS whose only cellular block has beacons but no demand is still
// tagged (straw-man rule), with zero cellular demand.
func TestCellStatsTaggedThroughBeaconOnlyBlock(t *testing.T) {
	b := netaddr.V6Block(0x20010db80007)
	agg := beacon.NewAggregate()
	agg.Add(b, 400, 40, 40)
	ds, _ := demand.NewDataset(map[netaddr.Block]float64{netaddr.V4Block(9, 9, 9): 1})
	in := Inputs{Detected: netaddr.NewSet(b), Beacon: agg, Demand: ds, ASOf: singleAS}
	stats, _ := CellStats(in)
	s := stats[7]
	if s == nil || s.CellBlocks != 1 || s.CellBlocks48 != 1 || s.CellDU != 0 || s.Hits != 400 {
		t.Fatalf("stats = %+v", s)
	}
	res := Filter(stats, Rules{MinHits: 300})
	if len(res.Tagged) != 1 || len(res.AfterRule3) != 1 {
		t.Errorf("filter = %+v", res)
	}
}

// Hits of ASes with no cellular block cannot change Filter's verdict, so
// CellStats neither tallies nor returns them.
func TestCellStatsUntaggedASHitsIrrelevant(t *testing.T) {
	cellular, fixed := netaddr.V4Block(60, 0, 0), netaddr.V4Block(61, 0, 0)
	asOf := func(b netaddr.Block) (uint32, bool) {
		if b == cellular {
			return 1, true
		}
		return 2, true
	}
	ds, _ := demand.NewDataset(map[netaddr.Block]float64{cellular: 1, fixed: 1})
	build := func(fixedHits int) FilterResult {
		agg := beacon.NewAggregate()
		agg.Add(cellular, 500, 50, 50)
		agg.Add(fixed, fixedHits, 10, 0)
		stats, _ := CellStats(Inputs{Detected: netaddr.NewSet(cellular), Beacon: agg, Demand: ds, ASOf: asOf})
		if stats[2] != nil {
			t.Errorf("untagged AS 2 in CellStats: %+v", stats[2])
		}
		return Filter(stats, Rules{MinCellDU: 0.1, MinHits: 300})
	}
	if a, b := build(1), build(1_000_000); !reflect.DeepEqual(a, b) {
		t.Errorf("untagged AS's hits changed the verdict: %+v vs %+v", a, b)
	}
}
