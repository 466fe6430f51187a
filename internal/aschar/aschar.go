// Package aschar lifts subnet-level cellular labels to autonomous systems
// (paper §5–6): the straw-man tagging of any AS with one cellular block,
// the three filtering heuristics of Table 5, the mixed/dedicated
// classification by cellular fraction of demand, and the demand rankings
// behind Figs 4–8 and Table 7.
//
// Measurement inputs are public-knowledge equivalents only: BGP-style
// block→AS mapping, the CAIDA-style class snapshot, the BEACON aggregate,
// and the DEMAND dataset. Ground-truth roles never enter.
package aschar

import (
	"sort"

	"cellspot/internal/asn"
	"cellspot/internal/beacon"
	"cellspot/internal/demand"
	"cellspot/internal/netaddr"
)

// Stats is the per-AS rollup the filters and characterization consume.
type Stats struct {
	ASN uint32

	// Blocks counts blocks observed in DEMAND or BEACON; CellBlocks those
	// labeled cellular, split by family.
	Blocks, CellBlocks         int
	CellBlocks24, CellBlocks48 int

	// Hits is the AS's total beacon responses; APIHits and CellHits the
	// Network-Information subsets.
	Hits, APIHits, CellHits int

	// TotalDU is the AS's platform demand; CellDU the demand of its
	// cellular-labeled blocks.
	TotalDU, CellDU float64
}

// CFD returns the AS's cellular fraction of demand (§6.1).
func (s *Stats) CFD() float64 {
	if s.TotalDU == 0 {
		return 0
	}
	return s.CellDU / s.TotalDU
}

// CellBlockFraction returns the fraction of the AS's observed blocks that
// are labeled cellular (Fig 5's second curve).
func (s *Stats) CellBlockFraction() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.CellBlocks) / float64(s.Blocks)
}

// Inputs bundles the measurement-side data for AS aggregation.
type Inputs struct {
	Detected netaddr.Set       // classifier output
	Beacon   *beacon.Aggregate // per-block hit tallies
	Demand   *demand.Dataset   // per-block DU
	// ASOf maps a block to its originating AS, as a BGP table would.
	ASOf func(netaddr.Block) (uint32, bool)
}

// BuildStats computes the full per-AS rollup that characterization reads
// (Blocks, TotalDU and the hit tallies of every AS observed in DEMAND or
// BEACON), on top of the cellular fields from CellStats' code. It walks
// all of DEMAND; a build that only needs Filter's verdict should call
// CellStats instead.
func BuildStats(in Inputs) map[uint32]*Stats {
	stats := make(rollup)
	stats.addCellular(in)
	if in.Demand != nil {
		in.Demand.Each(func(b netaddr.Block, du float64) {
			if a, ok := in.ASOf(b); ok {
				s := stats.get(a)
				s.Blocks++
				s.TotalDU += du
			}
		})
	}
	if in.Beacon != nil {
		for b, c := range in.Beacon.PerBlock {
			a, ok := in.ASOf(b)
			if !ok {
				continue
			}
			s := stats.get(a)
			s.addHits(c)
			if _, ok := in.Demand.Lookup(b); !ok {
				s.Blocks++ // beacon-only block (no recorded demand)
			}
		}
	}
	return stats
}

// CellStats computes exactly what Filter reads — CellBlocks (and its
// per-family split), CellDU and the hit tallies — for the ASes of
// detected blocks only. It reads DEMAND once per detected block and walks
// the beacon aggregate once, so its cost follows the detected set and the
// aggregate, never the size of DEMAND. For every AS it returns, those
// fields equal BuildStats' bit for bit; Blocks and TotalDU stay zero.
//
// origin holds the AS of every mapped detected block, so callers that go
// on to build a map need not ask in.ASOf again.
func CellStats(in Inputs) (stats map[uint32]*Stats, origin map[netaddr.Block]uint32) {
	r := make(rollup)
	origin = r.addCellular(in)
	if in.Beacon != nil {
		for b, c := range in.Beacon.PerBlock {
			if a, ok := in.ASOf(b); ok {
				if s := r[a]; s != nil {
					s.addHits(c)
				}
			}
		}
	}
	return r, origin
}

// rollup is a per-AS stats map under construction.
type rollup map[uint32]*Stats

func (r rollup) get(a uint32) *Stats {
	s := r[a]
	if s == nil {
		s = &Stats{ASN: a}
		r[a] = s
	}
	return s
}

// addCellular adds the cellular fields of every mapped detected block
// that DEMAND or BEACON observed, and returns the AS of every mapped
// detected block. Blocks are visited in canonical order — the order
// Demand.Each uses — so CellDU sums identically however the detected set
// was built.
func (r rollup) addCellular(in Inputs) map[netaddr.Block]uint32 {
	blocks := make([]netaddr.Block, 0, len(in.Detected))
	for b := range in.Detected {
		blocks = append(blocks, b)
	}
	netaddr.SortBlocks(blocks)
	origin := make(map[netaddr.Block]uint32, len(blocks))
	for _, b := range blocks {
		a, ok := in.ASOf(b)
		if !ok {
			continue
		}
		origin[b] = a
		du, observed := in.Demand.Lookup(b)
		if !observed && in.Beacon != nil {
			_, observed = in.Beacon.PerBlock[b]
		}
		if !observed {
			continue
		}
		s := r.get(a)
		s.CellBlocks++
		if b.IsV6() {
			s.CellBlocks48++
		} else {
			s.CellBlocks24++
		}
		s.CellDU += du
	}
	return origin
}

func (s *Stats) addHits(c *beacon.Counts) {
	s.Hits += c.Hits
	s.APIHits += c.API
	s.CellHits += c.Cell
}

// Rules holds the paper's AS-filter parameters (Table 5).
type Rules struct {
	// MinCellDU excludes ASes whose cumulative cellular demand is below
	// this many Demand Units (paper: 0.1).
	MinCellDU float64
	// MinHits excludes ASes with fewer beacon responses (paper: 300).
	MinHits int
	// Snapshot is the CAIDA-style classification; ASes labeled Content or
	// absent ("no known class") are excluded.
	Snapshot *asn.Snapshot
}

// DefaultRules mirrors the paper's thresholds.
func DefaultRules(snap *asn.Snapshot) Rules {
	return Rules{MinCellDU: 0.1, MinHits: 300, Snapshot: snap}
}

// FilterResult records each stage of the AS filtering pipeline.
type FilterResult struct {
	Tagged     []uint32 // straw-man: >= 1 cellular block
	AfterRule1 []uint32 // cellular demand >= MinCellDU
	AfterRule2 []uint32 // beacon hits >= MinHits
	AfterRule3 []uint32 // acceptable AS class — the final cellular AS set
}

// Removed returns how many ASes each rule filtered.
func (r FilterResult) Removed() (rule1, rule2, rule3 int) {
	return len(r.Tagged) - len(r.AfterRule1),
		len(r.AfterRule1) - len(r.AfterRule2),
		len(r.AfterRule2) - len(r.AfterRule3)
}

// Filter applies the straw-man tagging and the three exclusion rules in the
// paper's order. Output slices are sorted by AS number.
func Filter(stats map[uint32]*Stats, rules Rules) FilterResult {
	var res FilterResult
	for a, s := range stats {
		if s.CellBlocks > 0 {
			res.Tagged = append(res.Tagged, a)
		}
	}
	sort.Slice(res.Tagged, func(i, j int) bool { return res.Tagged[i] < res.Tagged[j] })

	for _, a := range res.Tagged {
		if stats[a].CellDU >= rules.MinCellDU {
			res.AfterRule1 = append(res.AfterRule1, a)
		}
	}
	for _, a := range res.AfterRule1 {
		if stats[a].Hits >= rules.MinHits {
			res.AfterRule2 = append(res.AfterRule2, a)
		}
	}
	for _, a := range res.AfterRule2 {
		if rules.Snapshot == nil {
			res.AfterRule3 = append(res.AfterRule3, a)
			continue
		}
		switch rules.Snapshot.Class(a) {
		case asn.ClassTransitAccess, asn.ClassEnterprise:
			res.AfterRule3 = append(res.AfterRule3, a)
		}
	}
	return res
}

// DedicatedCFD is the paper's cut: ASes with at least 90% of their demand
// cellular are dedicated; below that they are mixed (§6.1).
const DedicatedCFD = 0.9

// Network is one identified cellular AS with its characterization.
type Network struct {
	*Stats
	Dedicated bool
}

// Characterize labels each identified cellular AS mixed or dedicated.
func Characterize(final []uint32, stats map[uint32]*Stats) []Network {
	out := make([]Network, 0, len(final))
	for _, a := range final {
		s := stats[a]
		out = append(out, Network{Stats: s, Dedicated: s.CFD() >= DedicatedCFD})
	}
	return out
}

// RankByCellDU sorts networks by descending cellular demand (Fig 7,
// Table 7). Ties break on AS number for determinism.
func RankByCellDU(nets []Network) []Network {
	out := append([]Network(nil), nets...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].CellDU != out[j].CellDU {
			return out[i].CellDU > out[j].CellDU
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}

// BlockView is one block of an AS with its measured cellular ratio and
// demand — the unit of Fig 6's per-operator breakdown and Fig 8's ranked
// subnet series.
type BlockView struct {
	Block netaddr.Block
	Ratio float64 // 0 when the block has no API-enabled hits
	DU    float64
	Cell  bool // classifier label
}

// OperatorBlocks assembles the per-block view of one AS over an announced
// block list (BGP-style, so idle inventory shows up at ratio 0 with zero
// demand, as in Fig 6a).
func OperatorBlocks(announced []netaddr.Block, in Inputs) []BlockView {
	out := make([]BlockView, 0, len(announced))
	for _, b := range announced {
		v := BlockView{Block: b, Cell: in.Detected.Has(b)}
		if in.Beacon != nil {
			if r, ok := in.Beacon.Ratio(b); ok {
				v.Ratio = r
			}
		}
		if in.Demand != nil {
			v.DU = in.Demand.DU(b)
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ratio != out[j].Ratio {
			return out[i].Ratio < out[j].Ratio
		}
		return out[i].Block.Key < out[j].Block.Key
	})
	return out
}
