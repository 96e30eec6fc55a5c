package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"athena/internal/athena"
)

// endToEndUnits lists the end-to-end metrics a --trace 0 run prints, with
// their units. BENCHMARK.json declares the same names, directions and
// bounds.
var endToEndUnits = map[string]string{
	"setup_s":             "s",
	"resolved_ratio":      "ratio",
	"accuracy":            "ratio",
	"decision_p50_ms":     "ms",
	"decision_p90_ms":     "ms",
	"decision_p99_ms":     "ms",
	"bytes_per_decision":  "bytes",
	"cpu_ms_per_decision": "ms",
	"peak_rss_mb":         "MB",
}

// profiledModules are the internal/ modules whose CPU share the traced
// run reports as <module>.self_pct; bench is the harness itself.
var profiledModules = []string{
	"annotate", "athena", "boolexpr", "cache", "core", "cover", "gossip",
	"metrics", "names", "netsim", "object", "schedule", "shard", "simclock",
	"transport", "trust", "wire", "workload", "bench",
}

// layerUnits lists the per-layer metrics a --trace 1 run prints. A layer
// a workload does not run reads 0.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"workload.generate_ms":             "ms",
		"athena.new_cluster_ms":            "ms",
		"athena.fleet_wire_ms":             "ms",
		"simclock.events":                  "count",
		"simclock.events_per_s":            "1/s",
		"netsim.sent":                      "count",
		"netsim.delivered":                 "count",
		"netsim.dropped":                   "count",
		"netsim.lost":                      "count",
		"athena.requests_per_decision":     "ratio",
		"athena.refetches":                 "count",
		"athena.cache_answers":             "count",
		"athena.label_answers":             "count",
		"athena.annotations":               "count",
		"athena.routing_drops":             "count",
		"athena.handle_us":                 "us",
		"athena.handled_msgs":              "count",
		"athena.query_init_us":             "us",
		"cache.hit_ratio":                  "ratio",
		"labels.hit_ratio":                 "ratio",
		"cache.evictions":                  "count",
		"cache.stale_drops":                "count",
		"retry.timeouts":                   "count",
		"retry.retransmits":                "count",
		"retry.failovers":                  "count",
		"membership.ctl_msgs":              "count",
		"membership.ctl_bytes":             "bytes",
		"membership.suspicions":            "count",
		"membership.evictions":             "count",
		"membership.sync_rounds":           "count",
		"batch.frames_saved":               "count",
		"batch.mean_size":                  "count",
		"wire.encode_us":                   "us",
		"wire.decode_us":                   "us",
		"wire.frames":                      "count",
		"wire.bytes_per_frame":             "bytes",
		"transport.send_us":                "us",
		"transport.sends":                  "count",
		"transport.sent_bytes":             "bytes",
		"transport.redials":                "count",
		"transport.send_errors":            "count",
		"runtime.gc_pct":                   "%",
		"runtime.alloc_bytes_per_decision": "bytes",
		"bench.decisions_per_s":            "1/s",
		"bench.gen_lag_p99_ms":             "ms",
		"bench.trace_overhead_pct":         "%",
		"bench.miss_ratio":                 "ratio",
		"bench.wrong_ratio":                "ratio",
	}
	for _, m := range profiledModules {
		u[m+".self_pct"] = "%"
	}
	return u
}()

// report is what one run measured. The decision counts, latencies and
// bytes describe the run's deterministic decision set (sims: the first
// pass over the scenario seeds; TCP: every timed decision); the timed
// fields cover every decision the timed region finished.
type report struct {
	attempted, failed int // every decision issued by the run / errored ones

	issued, resolved, wrong int
	latMs                   []float64 // resolved decisions, issue to decision
	bytes                   int64

	finished int           // decisions finished inside the timed region
	timed    time.Duration // wall time of the timed region
	cpu      time.Duration // process user+sys CPU inside the timed region
	alloc    uint64        // heap bytes allocated inside the timed region
	// scenarioCost is each first-pass scenario's share of the timed region
	// (sims only), in run order.
	scenarioCost []cost

	// One entry per set-up: generation, cluster or fleet wiring, total.
	genMs, wireMs, setupS []float64
	layer                 map[string]float64
	violations            []string
}

func newReport() *report { return &report{layer: map[string]float64{}} }

// timer brackets one piece of the timed region.
type timer struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func startTimer() timer {
	return timer{wall: wallNow(), cpu: processCPU(), alloc: heapAllocs()}
}

// stop adds the bracketed piece, which finished n decisions.
func (t timer) stop(r *report, n int) {
	r.timed += wallSince(t.wall)
	r.cpu += processCPU() - t.cpu
	r.alloc += heapAllocs() - t.alloc
	r.finished += n
}

// processCPU is the process's user+sys CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (r *report) check(v string) { r.violations = append(r.violations, v) }

// addSetup records one set-up: scenario generation, then cluster or
// fleet wiring.
func (r *report) addSetup(gen, wiring time.Duration) {
	r.genMs = append(r.genMs, ms(gen))
	r.wireMs = append(r.wireMs, ms(wiring))
	r.setupS = append(r.setupS, (gen + wiring).Seconds())
}

// endToEnd is the --trace 0 metric set.
func (r *report) endToEnd() map[string]metric {
	v := map[string]float64{
		"setup_s":             percentile(r.setupS, 0.5),
		"resolved_ratio":      ratio(float64(r.resolved), float64(r.issued)),
		"accuracy":            ratio(float64(r.resolved-r.wrong), float64(r.resolved)),
		"decision_p50_ms":     percentile(r.latMs, 0.50),
		"decision_p90_ms":     percentile(r.latMs, 0.90),
		"decision_p99_ms":     percentile(r.latMs, 0.99),
		"bytes_per_decision":  ratio(float64(r.bytes), float64(r.issued)),
		"cpu_ms_per_decision": r.costPerDecision(),
		"peak_rss_mb":         peakRSSMB(),
	}
	return withUnits(v, endToEndUnits)
}

// layerMetrics is the --trace 1 metric set.
func (r *report) layerMetrics() map[string]metric {
	l := r.layer
	l["workload.generate_ms"] = percentile(r.genMs, 0.5)
	l["bench.decisions_per_s"] = ratio(float64(r.finished), r.timed.Seconds())
	l["runtime.alloc_bytes_per_decision"] = ratio(float64(r.alloc), float64(r.finished))
	l["bench.miss_ratio"] = ratio(float64(r.issued-r.resolved), float64(r.issued))
	l["bench.wrong_ratio"] = ratio(float64(r.wrong), float64(r.resolved))
	return withUnits(l, layerUnits)
}

func withUnits(v map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		out[name] = metric{Value: v[name], Unit: unit}
	}
	return out
}

// cost is the CPU time some decisions took.
type cost struct {
	cpu       time.Duration
	decisions int
}

// costPerDecision is the CPU milliseconds one finished decision cost.
func (r *report) costPerDecision() float64 { return ratio(ms(r.cpu), float64(r.finished)) }

// costOfFirst is costPerDecision over the first n scenarios of the first
// pass, or over the whole run when n is 0.
func (r *report) costOfFirst(n int) float64 {
	if n == 0 {
		return r.costPerDecision()
	}
	var c cost
	for _, s := range r.scenarioCost[:n] {
		c.cpu += s.cpu
		c.decisions += s.decisions
	}
	return ratio(ms(c.cpu), float64(c.decisions))
}

// The metrics-registry counters the per-layer set draws on: hitCounters
// feed the hit ratios, countedCounters are reported as they are.
var (
	hitCounters     = []string{"cache.hits", "cache.approx_hits", "cache.misses", "labels.hits", "labels.misses"}
	countedCounters = []string{
		"cache.evictions", "cache.stale_drops",
		"retry.timeouts", "retry.retransmits", "retry.failovers",
		"membership.ctl_msgs", "membership.ctl_bytes", "membership.suspicions",
		"membership.evictions", "membership.sync_rounds", "batch.frames_saved",
	}
)

// addNodeStats folds fleet-summed node counters and the metrics registry
// snapshot into the per-layer set.
func (r *report) addNodeStats(s athena.Stats, c map[string]int64) {
	l := r.layer
	l["athena.requests_per_decision"] = ratio(float64(s.RequestsSent), float64(r.issued))
	l["athena.refetches"] = float64(s.Refetches)
	l["athena.cache_answers"] = float64(s.CacheAnswers)
	l["athena.label_answers"] = float64(s.LabelAnswers)
	l["athena.annotations"] = float64(s.Annotations)
	l["athena.routing_drops"] = float64(s.RoutingDrops)
	hits := float64(c["cache.hits"] + c["cache.approx_hits"])
	l["cache.hit_ratio"] = ratio(hits, hits+float64(c["cache.misses"]))
	l["labels.hit_ratio"] = ratio(float64(c["labels.hits"]), float64(c["labels.hits"]+c["labels.misses"]))
	for _, k := range countedCounters {
		l[k] = float64(c[k])
	}
	l["batch.mean_size"] = ratio(float64(s.BatchedMsgs), float64(s.BatchesSent))
}
