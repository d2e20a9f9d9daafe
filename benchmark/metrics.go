package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's contract: BENCHMARK.json repeats them, and selfcheck_test
// fails if the two drift apart.
type metricDef struct {
	name, unit string
	better     string // "lower" or "higher"
}

// failedFrac is the seventh end-to-end metric. It is 0 on a healthy run,
// and BENCHMARK.json's end_to_end list may hold no metric that can be 0
// and no bound of "any increase"; so the file lists it first among
// per_layer, the result line of a traced run carries it there, the
// failed/attempted pair of every result line carries it too, and
// -compare judges it by its own rule.
var failedFrac = metricDef{"failed_frac", "ratio", "lower"}

// endToEnd are the end-to-end metrics BENCHMARK.json bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p95_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	// client (C): the generator's own clock.
	{"client.lat_p99_ms", "ms", "lower"},
	{"client.lat_max_ms", "ms", "lower"},
	{"client.bytes_in_per_op", "B", "lower"},
	{"client.bytes_out_per_op", "B", "lower"},
	{"client.late_p95_ms", "ms", "lower"},
	{"client.backlog_end", "count", "lower"},
	{"client.quote_hit_p50_ms", "ms", "lower"},
	{"client.quote_miss_p50_ms", "ms", "lower"},
	{"client.purchase_p50_ms", "ms", "lower"},
	{"client.purchase_p95_ms", "ms", "lower"},
	{"client.exact_p50_ms", "ms", "lower"},
	{"client.approx_p50_ms", "ms", "lower"},
	{"client.approx_overcharge_p50", "ratio", "lower"},
	// net, httpapi (T).
	{"net.self_us_per_op", "us", "lower"},
	{"httpapi.self_us_per_op", "us", "lower"},
	{"httpapi.allocs_per_op", "count", "lower"},
	{"httpapi.alloc_bytes_per_op", "B", "lower"},
	// parser.
	{"parser.compile_us_per_op", "us", "lower"},
	{"parser.fingerprint_us_per_op", "us", "lower"},
	{"parser.allocs_per_op", "count", "lower"},
	{"parser.stage_parse_us_per_op", "us", "lower"},
	// quotecache.
	{"quotecache.hit_ratio", "ratio", "higher"},
	{"quotecache.template_hit_ratio", "ratio", "higher"},
	{"quotecache.evictions_per_kop", "count", "lower"},
	{"quotecache.coalesced_per_kop", "count", "lower"},
	{"quotecache.lookup_us_per_op", "us", "lower"},
	// disagree.
	{"disagree.static_frac", "ratio", "higher"},
	{"disagree.batched_frac", "ratio", "lower"},
	{"disagree.delta_full_frac", "ratio", "lower"},
	{"disagree.delta_partial_frac", "ratio", "lower"},
	{"disagree.fullrun_frac", "ratio", "lower"},
	{"disagree.naive_frac", "ratio", "lower"},
	{"disagree.stage_classify_us_per_op", "us", "lower"},
	{"disagree.stage_tagged_batch_us_per_op", "us", "lower"},
	{"disagree.stage_delta_us_per_op", "us", "lower"},
	{"disagree.stage_residual_us_per_op", "us", "lower"},
	// exec.
	{"exec.run_us_per_op", "us", "lower"},
	{"exec.price_over_exec", "ratio", "lower"},
	// pricing.
	{"pricing.elements_per_op", "count", "lower"},
	{"pricing.sweep_us_per_op", "us", "lower"},
	{"pricing.us_per_element", "us", "lower"},
	{"pricing.fold_us_per_op", "us", "lower"},
	{"pricing.allocs_per_op", "count", "lower"},
	{"pricing.stage_entropy_us_per_op", "us", "lower"},
	// support, storage.
	{"support.generate_s", "s", "lower"},
	{"storage.load_s", "s", "lower"},
	// broker.
	{"broker.price_us_per_op", "us", "lower"},
	{"broker.purchase_us_per_op", "us", "lower"},
	{"broker.self_us_per_op", "us", "lower"},
	{"broker.allocs_per_op", "count", "lower"},
	{"broker.alloc_bytes_per_op", "B", "lower"},
	{"broker.errors", "count", "lower"},
	{"broker.cancellations", "count", "lower"},
	{"broker.shed_escalations", "count", "lower"},
	{"broker.refined_per_kop", "count", "higher"},
	// durable.
	{"durable.appends_per_purchase", "count", "lower"},
	{"durable.fsyncs_per_purchase", "count", "lower"},
	{"durable.wal_bytes_per_purchase", "B", "lower"},
	{"durable.snapshot_writes", "count", "lower"},
	{"durable.purchase_overhead_us", "us", "lower"},
	{"durable.recovery_s", "s", "lower"},
	// shard.
	{"shard.rpcs_per_quote", "count", "lower"},
	{"shard.hedges_per_quote", "count", "lower"},
	{"shard.hedge_wins_per_quote", "count", "higher"},
	{"shard.retries_per_quote", "count", "lower"},
	{"shard.rows_swept_per_quote", "count", "lower"},
	{"shard.degraded_quotes", "count", "lower"},
	{"shard.breaker_open", "count", "lower"},
	{"shard.fanout_us_per_op", "us", "lower"},
	{"shard.merge_us_per_op", "us", "lower"},
	{"shard.sweep_us_per_op", "us", "lower"},
	{"shard.rpc_overhead_us_per_op", "us", "lower"},
	{"shard.wire_bytes_per_quote", "B", "lower"},
	// proc.
	{"proc.spawn_to_healthy_s", "s", "lower"},
	{"proc.warmup_s", "s", "lower"},
	{"proc.cpu_user_ms_per_op", "ms", "lower"},
	{"proc.cpu_sys_ms_per_op", "ms", "lower"},
	{"proc.rss_end_mb", "MB", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.alloc_bytes_per_op", "B", "lower"},
	{"proc.gc_pause_ms_per_kop", "ms", "lower"},
	{"proc.num_gc", "count", "lower"},
	{"proc.host_steal_frac", "ratio", "lower"},
	// trace.
	{"trace.unaccounted_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// lineDefs are the metrics a run's result line carries, in the order
// BENCHMARK.json lists them: end_to_end untraced, per_layer traced.
func lineDefs(traced bool) []metricDef {
	if traced {
		return append([]metricDef{failedFrac}, perLayer...)
	}
	return endToEnd
}

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values by name. A name that was looked
// for but that the server does not export is recorded in absent, never
// as an error; a name that does not apply to the workload is simply
// never set. Both print as 0 in the result line, which must carry every
// declared name.
type metricSet struct {
	vals   map[string]float64
	absent map[string]bool
	notes  map[string]string // e.g. the sample count beside a percentile
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]float64{}, absent: map[string]bool{}, notes: map[string]string{}}
}

func (m *metricSet) set(name string, v float64) { m.vals[name] = v }

func (m *metricSet) note(name, format string, a ...any) { m.notes[name] = fmt.Sprintf(format, a...) }

// ratio sets name to num/den, or leaves it unset when den is 0.
func (m *metricSet) ratio(name string, num, den float64) {
	if den != 0 {
		m.vals[name] = num / den
	}
}

// export returns the declared metrics as the result line wants them.
func (m *metricSet) export(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: m.vals[d.name], Unit: d.unit}
	}
	return out
}

// measured returns only the declared metrics this run has a value for.
func (m *metricSet) measured(defs []metricDef) map[string]metric {
	out := map[string]metric{}
	for _, d := range defs {
		if v, ok := m.vals[d.name]; ok {
			out[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	return out
}

// print writes one line per declared metric: name, value, unit, note.
func (m *metricSet) print(title string, defs []metricDef) {
	fmt.Printf("  -- %s --\n", title)
	for _, d := range defs {
		v, ok := m.vals[d.name]
		val := fmt.Sprintf("%14.4f", v)
		switch {
		case m.absent[d.name]:
			val = fmt.Sprintf("%14s", "absent")
		case !ok:
			val = fmt.Sprintf("%14s", "n/a")
		}
		fmt.Printf("  %-40s %s %-6s %s\n", d.name, val, d.unit, m.notes[d.name])
	}
}

// delta is after-before for one exported name; ok is false (and the
// dependent metrics are marked absent) when the server does not export
// it.
func delta(before, after map[string]float64, name string) (float64, bool) {
	a, ok := after[name]
	if !ok {
		return 0, false
	}
	return a - before[name], true
}

// fromServer derives a per-op metric from a scraped delta, marking it
// absent when the server no longer exports the underlying name.
func (m *metricSet) fromServer(name string, before, after map[string]float64, src string, scale, per float64) {
	d, ok := delta(before, after, src)
	if !ok {
		m.absent[name] = true
		return
	}
	if per != 0 {
		m.vals[name] = d * scale / per
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
