// Package mapbuild runs the classify → AS-filter → cellmap.Build chain:
// the one code path that turns a beacon aggregate into the publishable
// cellular map. The live updater, the federation receiver, and the evolve
// scenario runner all build through it, so maps from identical aggregates
// are bit-identical regardless of which subsystem published them.
//
// The AS filter is fed by aschar.CellStats, not aschar.BuildStats: a
// build reads DEMAND once per detected block and asks Inputs.ASOf once
// per aggregate block and once per detected block, so its cost follows
// the window rather than the size of DEMAND. The full per-AS rollup that
// characterization needs stays with aschar.BuildStats (pipeline.Analyze).
package mapbuild

import (
	"fmt"

	"cellspot/internal/aschar"
	"cellspot/internal/beacon"
	"cellspot/internal/cellmap"
	"cellspot/internal/classify"
	"cellspot/internal/demand"
	"cellspot/internal/netaddr"
)

// Inputs bundles the side data the map-build chain needs beyond the
// beacon aggregate itself.
type Inputs struct {
	// Demand weights AS-filter rule 1 and the published DU annotations;
	// nil skips both (rule 1 then passes every AS).
	Demand *demand.Dataset
	// Rules is the paper's AS filter (Table 5). The zero value disables
	// all three rules.
	Rules aschar.Rules
	// ASOf maps a block to its originating AS, as a BGP table would.
	// Required: unmappable blocks cannot be published.
	ASOf func(netaddr.Block) (uint32, bool)
	// CountryOf annotates entries with a country; optional.
	CountryOf func(uint32) (string, bool)
}

// Build classifies the aggregate, drops detected blocks whose AS fails
// the paper's exclusion rules, and assembles the publishable map. The
// output is byte-identical to filtering aschar.BuildStats' full rollup.
func Build(agg *beacon.Aggregate, threshold float64, period string, in Inputs) (*cellmap.Map, error) {
	if in.ASOf == nil {
		return nil, fmt.Errorf("mapbuild: Inputs.ASOf is required")
	}
	cls, err := classify.New(threshold)
	if err != nil {
		return nil, fmt.Errorf("mapbuild: %w", err)
	}
	detected := cls.Classify(agg)
	stats, origin := aschar.CellStats(aschar.Inputs{
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
	for b, a := range origin {
		if allowed[a] {
			kept.Add(b)
		}
	}
	return cellmap.Build(threshold, period, cellmap.Inputs{
		Detected: kept,
		Beacon:   agg,
		Demand:   in.Demand,
		ASOf: func(b netaddr.Block) (uint32, bool) {
			a, ok := origin[b]
			return a, ok
		},
		CountryOf: in.CountryOf,
	})
}
