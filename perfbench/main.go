// Command perfbench is cellspot's end-to-end benchmark. One run builds the
// paper's offline map, serves it through an in-process sharded fleet, and
// drives the federated live loop (collectors → shippers → receiver →
// publish → replica swap → gateway answer), all through the public APIs
// of internal/*. It checks every answer, then prints every metric by name
// with its unit; the last line of standard output is the JSON result.
//
//	go run . --workload zipf --seed 1 --seconds 14 --trace 0
//
// With --trace 1 the run also records spans at each layer boundary and
// prints the per-layer metrics instead of the end-to-end ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the client population its lookups
// draw from. Every workload runs the whole chain; they differ in whether
// clients repeat, which decides whether the gateway's per-address cache
// is used.
var workloads = map[string]string{
	"zipf":     "~1M demand-weighted client addresses with Zipf(s≈1) popularity: repeat clients, so the gateway cache holds the head",
	"distinct": "every lookup draws a fresh demand-weighted client address: no repeats, so the gateway cache is only overhead",
}

// config sizes one run. full() is the benchmark's declared size; the
// smoke test shrinks it.
type config struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    bool    `json:"trace"`
	Root     string  `json:"-"`
	Scale    float64 `json:"world_scale"`
	Hits     int     `json:"beacon_total_hits"`

	OfflineReps int `json:"offline_reps"`
	SetupReps   int `json:"setup_reps"`

	Population int     `json:"population"`
	ZipfS      float64 `json:"zipf_s"`
	Shards     int     `json:"shards"`
	Replicas   int     `json:"replicas"`
	CacheSize  int     `json:"gateway_cache"`
	Conns      int     `json:"conns"`
	BatchSize  int     `json:"batch_addrs"`
	BatchFrac  float64 `json:"batch_frac"`
	GenFrac    float64 `json:"live_gen_frac"`
	ServeRate  float64 `json:"serve_rate_per_s"`
	LiveRate   float64 `json:"live_lookup_rate_per_s"`

	BeaconBatch   int     `json:"beacon_batch_records"`
	IngestRecords int     `json:"ingest_records_per_round"`
	IngestRounds  int     `json:"ingest_rounds"`
	BeaconRate    float64 `json:"beacon_batches_per_s"`

	SingleLimitMs float64 `json:"single_limit_ms"`
	BatchLimitMs  float64 `json:"batch_limit_ms"`

	WarmSeconds float64 `json:"warm_seconds"`
}

func full(workload string, seed uint64, seconds int, trace bool) config {
	return config{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Scale: 0.04, Hits: 25_000_000,
		OfflineReps: 2, SetupReps: 3,
		Population: 1 << 20, ZipfS: 1.01,
		Shards: 3, Replicas: 2, CacheSize: 65536,
		Conns: runtime.NumCPU(), BatchSize: 128, BatchFrac: 0.10, GenFrac: 0.05,
		ServeRate: 1000, LiveRate: 300,
		BeaconBatch: 500, IngestRecords: 50_000, IngestRounds: 3, BeaconRate: 20,
		SingleLimitMs: 10, BatchLimitMs: 40,
		WarmSeconds: 0.5,
	}
}

// tiny is a few-seconds run of the whole chain, for the smoke test.
func tiny(workload string, seed uint64, seconds int, trace bool) config {
	c := full(workload, seed, seconds, trace)
	c.Scale, c.Hits = 0.004, 2_000_000
	c.SetupReps = 2
	c.Population = 20_000
	c.ServeRate, c.LiveRate = 300, 100
	c.BeaconBatch, c.IngestRecords, c.IngestRounds, c.BeaconRate = 100, 5_000, 2, 10
	c.WarmSeconds = 0.2
	return c
}

// Phase lengths split the measured seconds: the serve phase's open loop,
// its closed loop, and the live phase's refresh loop.
func (c config) serveOpen() time.Duration { return c.part(0.4) }
func (c config) closed() time.Duration    { return c.part(0.15) }
func (c config) refresh() time.Duration   { return c.part(0.45) }
func (c config) part(f float64) time.Duration {
	return time.Duration(f * float64(c.Seconds) * float64(time.Second))
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: zipf or distinct")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 14, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
		root     = flag.String("root", ".", "checkout root (holds .bench_build)")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fatalf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatalf("bad --seconds or --trace")
	}
	// A run that overstays its budget is a failure, not a result.
	watchdog := time.AfterFunc(175*time.Second, func() { fatalf("run exceeded 175s") })
	defer watchdog.Stop()

	cfg := full(*workload, *seed, *seconds, *trace == 1)
	cfg.Root = *root
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if err := emit(os.Stdout, cfg, rep); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// metric is one named figure of a run.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is everything a run measured and checked.
type report struct {
	Env        map[string]string `json:"env"`
	Config     config            `json:"config"`
	Inputs     map[string]string `json:"inputs"` // digests of the generated inputs
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	Extra      map[string]metric `json:"extra"`
	Layers     []layerSummary    `json:"layers,omitempty"`
	Gates      map[string]bool   `json:"gates"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Notes      []string          `json:"notes,omitempty"`
	SpanFile   string            `json:"span_file,omitempty"`
	ReportFile string            `json:"report_file,omitempty"`
}

func (r *report) correct() bool {
	for _, ok := range r.Gates {
		if !ok {
			return false
		}
	}
	return len(r.Gates) > 0
}

// gate records one check; a gate checked several times passes only if
// every check did.
func (r *report) gate(name string, ok bool, format string, args ...any) {
	if r.Gates == nil {
		r.Gates = make(map[string]bool)
	}
	if !ok {
		r.Notes = append(r.Notes, "gate "+name+" failed: "+fmt.Sprintf(format, args...))
	}
	prev, seen := r.Gates[name]
	r.Gates[name] = ok && (prev || !seen)
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints the human-readable report, then the full report as one JSON
// line, then the result line.
func emit(w io.Writer, cfg config, rep *report) error {
	dir := filepath.Join(cfg.Root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.Trace {
		mode = "trace"
	}
	rep.ReportFile = filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", cfg.Workload, cfg.Seed, mode))
	raw, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := os.WriteFile(rep.ReportFile, append(raw, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	for _, k := range sortedKeys(rep.Env) {
		fmt.Fprintf(w, "  env %-14s %s\n", k, rep.Env[k])
	}
	for _, k := range sortedKeys(rep.Inputs) {
		fmt.Fprintf(w, "  input %-12s %s\n", k, rep.Inputs[k])
	}
	printMetrics(w, "end-to-end", rep.EndToEnd)
	if cfg.Trace {
		printMetrics(w, "per-layer", rep.PerLayer)
		fmt.Fprintf(w, "  %-28s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "wait_ms")
		for _, l := range rep.Layers {
			fmt.Fprintf(w, "  %-28s %8d %12.1f %12.1f %10.1f\n", l.Name, l.Count, l.TotalMs, l.SelfMs, l.WaitMs)
		}
	}
	for _, k := range sortedKeys(rep.Gates) {
		fmt.Fprintf(w, "  gate %-26s %v\n", k, rep.Gates[k])
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "  note %s\n", n)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v report=%s\n", rep.Attempted, rep.Failed, rep.correct(), rep.ReportFile)

	res := result{Correct: rep.correct(), Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	names, src := endToEnd, rep.EndToEnd
	if cfg.Trace {
		names, src = perLayer, rep.PerLayer
	}
	for _, n := range names {
		res.Metrics[n.name] = metric{Value: src[n.name].Value, Unit: n.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	fmt.Fprintf(w, "  %s metrics:\n", title)
	for _, k := range sortedKeys(ms) {
		m := ms[k]
		fmt.Fprintf(w, "    %-34s %14.6g %-8s n=%d\n", k, m.Value, m.Unit, m.Samples)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
