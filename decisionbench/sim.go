package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"athena/internal/athena"
	"athena/internal/boolexpr"
	"athena/internal/core"
	"athena/internal/netsim"
	"athena/internal/workload"
)

// simSpec is one simulated workload: how a scenario is generated from a
// seed, how the cluster is configured, and how many scenarios make up
// the run's deterministic decision set.
type simSpec struct {
	config    func(seed int64) workload.Config
	cluster   athena.ClusterConfig
	scenarios int
}

// simPaper is the Sec. VII scenario exactly as DefaultWorkload builds it,
// run on the kernel at one worker so the single-thread engine is what
// is timed. It loads the decision data plane (planner, boolexpr, cache,
// label sharing, netsim store-and-forward) and leaves membership,
// sharding, batching and the wire codec idle.
var simPaper = simSpec{
	config: func(seed int64) workload.Config {
		c := workload.DefaultConfig()
		c.Seed = seed
		return c
	},
	cluster:   athena.ClusterConfig{Scheme: athena.SchemeLVFL, Workers: 1},
	scenarios: 160,
}

// simFleet is a 128-node fleet with everything the paper scenario leaves
// off: SWIM gossip membership, a sharded directory, churn outages and
// data-plane coalescing, on a two-worker kernel (the reference host's
// core count, and never more). Its data plane is light.
var simFleet = simSpec{
	config: func(seed int64) workload.Config {
		c := workload.DefaultConfig()
		c.Seed = seed
		c.GridRows, c.GridCols = 11, 11
		c.Nodes = 128
		return c
	},
	cluster: athena.ClusterConfig{
		Scheme:            athena.SchemeLVF,
		HeartbeatInterval: 2 * time.Second,
		GossipFanout:      2,
		Shards:            512,
		ShardReplicas:     3,
		ChurnEvents:       6,
		ChurnOutage:       30 * time.Second,
		CoalesceWindow:    10 * time.Millisecond,
		Workers:           2,
	},
	scenarios: 5,
}

// Scenario timing, mirroring athena.Cluster.Run's defaults: decisions are
// issued over the first issueStagger of virtual time and the run stops
// runSlack after the last deadline.
const (
	issueStagger = 5 * time.Second
	runSlack     = 5 * time.Second
	maxEvents    = 50_000_000
	minSetups    = 25
)

func runSimPaper(o runOpts) (*report, error) { return runSim(simPaper, o) }

func runSimFleet(o runOpts) (*report, error) { return runSim(simFleet, o) }

// scenarioSeed derives the i-th scenario seed of a run from the run seed.
func scenarioSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x >> 1)
}

// simDecision is one decision the harness issues: it knows the
// expression, origin and due time before the node sees it.
type simDecision struct {
	origin   string
	expr     boolexpr.DNF
	due      time.Time
	deadline time.Duration
	// id and err are written by the injection callback on the origin's
	// lane and read after RunUntil returns.
	id  string
	err error
}

// scenarioOutcome is the deterministic record of one scenario run. Two
// runs of one seed must produce equal values (reflect.DeepEqual).
type scenarioOutcome struct {
	issued, resolved, wrong, failed int
	latencies                       []time.Duration // resolved decisions, virtual time
	net                             netsim.Stats
	events                          int64
	node                            athena.Stats // summed over the fleet
	counters                        map[string]int64
	violations                      []string
}

// setupScenario is the set-up a user pays per deployment: scenario
// generation and cluster wiring. The traced run excludes profile samples
// under this function from the per-module shares.
func setupScenario(spec simSpec, seed int64) (*athena.Cluster, time.Duration, time.Duration, error) {
	t0 := wallNow()
	s, err := workload.Generate(spec.config(seed))
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := wallNow()
	c, err := athena.NewCluster(s, spec.cluster)
	if err != nil {
		return nil, 0, 0, err
	}
	return c, t1.Sub(t0), wallSince(t1), nil
}

// runScenario issues every scenario query as a decision, runs the
// simulation past the last deadline, and checks and scores each decision.
func runScenario(c *athena.Cluster, spec simSpec) (scenarioOutcome, error) {
	s := c.Scenario
	var out scenarioOutcome
	rng := rand.New(rand.NewSource(s.Config.Seed + 0x5eed))
	decs := make([]simDecision, len(s.Queries))
	var last time.Time
	for i, qs := range s.Queries {
		node, ok := c.Nodes[qs.Origin]
		if !ok {
			return out, fmt.Errorf("query origin %q has no node", qs.Origin)
		}
		d := &decs[i]
		*d = simDecision{
			origin:   qs.Origin,
			expr:     qs.Expr,
			due:      s.Epoch.Add(time.Duration(rng.Int63n(int64(issueStagger)))),
			deadline: qs.Deadline,
		}
		if dl := d.due.Add(d.deadline); dl.After(last) {
			last = dl
		}
		if err := c.Network.AtNode(d.origin, d.due, func() {
			d.id, d.err = node.QueryInit(d.expr, d.deadline)
		}); err != nil {
			return out, fmt.Errorf("inject decision: %w", err)
		}
	}
	if n := spec.cluster.ChurnEvents; n > 0 {
		outage := spec.cluster.ChurnOutage
		start := s.Epoch.Add(issueStagger)
		window := last.Sub(start) - outage
		if window <= 0 {
			window = issueStagger
		}
		c.Network.ScheduleChurn(s.Config.Seed+0xc4c4, n, start, window, outage)
	}
	if err := c.Network.RunUntil(last.Add(runSlack), maxEvents); err != nil {
		return out, fmt.Errorf("simulation: %w", err)
	}

	byID := make(map[string]*simDecision, len(decs))
	out.issued = len(decs)
	for i := range decs {
		d := &decs[i]
		if d.err != nil {
			out.failed++
			out.violations = append(out.violations, fmt.Sprintf("seed %d: QueryInit at %s: %v", s.Config.Seed, d.origin, d.err))
			continue
		}
		byID[d.id] = d
	}
	for _, p := range s.Placements {
		node := c.Nodes[p.ID]
		if n := node.PendingQueries(); n > 0 {
			out.violations = append(out.violations, fmt.Sprintf("seed %d: %s has %d decisions pending after deadline plus slack", s.Config.Seed, p.ID, n))
		}
		for _, r := range node.Results() {
			d, ok := byID[r.QueryID]
			if !ok {
				continue
			}
			delete(byID, r.QueryID)
			if r.Status != core.ResolvedTrue && r.Status != core.ResolvedFalse {
				continue // a miss: counted against issued, not resolved
			}
			out.resolved++
			out.latencies = append(out.latencies, r.Finished.Sub(d.due))
			if !matchesTruth(d.expr, r.Status, s.World, r.Finished) {
				out.wrong++
			}
		}
		out.node = addStats(out.node, node.Stats())
	}
	if len(byID) > 0 {
		out.failed += len(byID)
		out.violations = append(out.violations, fmt.Sprintf("seed %d: %d issued decisions never finished", s.Config.Seed, len(byID)))
	}
	out.net = c.Network.Stats()
	if c.Kernel != nil {
		out.events = c.Kernel.Executed()
	}
	all := c.Metrics.Snapshot().Counters
	out.counters = map[string]int64{}
	for _, names := range [][]string{hitCounters, countedCounters} {
		for _, k := range names {
			out.counters[k] = all[k]
		}
	}
	return out, nil
}

// matchesTruth reports whether a resolved decision agrees with the
// expression evaluated on the world's label values at decision time.
func matchesTruth(expr boolexpr.DNF, status core.Status, w *workload.World, at time.Time) bool {
	labels := expr.Labels()
	a := make(boolexpr.Assignment, len(labels))
	for _, l := range labels {
		a[l] = boolexpr.FromBool(w.LabelValue(l, at))
	}
	return (expr.Eval(a) == boolexpr.True) == (status == core.ResolvedTrue)
}

// addStats and subStats combine node counters field by field.
func addStats(a, b athena.Stats) athena.Stats { return combineStats(a, b, 1) }

func subStats(a, b athena.Stats) athena.Stats { return combineStats(a, b, -1) }

func combineStats(a, b athena.Stats, sign int64) athena.Stats {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if f := va.Field(i); f.Kind() == reflect.Int || f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + sign*vb.Field(i).Int())
		}
	}
	return a
}

// runSim runs one simulated workload. The first pass over the run's
// scenario seeds gives the deterministic decision metrics; if time is
// left, the run goes on over the same seeds until the budget is spent,
// and each repeat must reproduce its scenario's outcome exactly. Set-up
// (generation and cluster wiring) is timed on its own, at least
// minSetups times, and never inside the timed region.
func runSim(spec simSpec, o runOpts) (*report, error) {
	if !o.traced {
		return measureSim(spec, o)
	}
	return tracedRun(o, func(o runOpts, spans *spanLog) (*report, error) {
		if spans != nil {
			return measureSim(spec, o)
		}
		// The untraced half only needs a cost to hold the traced one
		// against: the first fifth of the scenario seeds, which the
		// traced half runs first. One scenario runs before it, so that
		// neither half pays for the process warming up.
		base := spec
		base.scenarios = 1
		warm, err := measureSim(base, runOpts{seed: o.seed})
		if err != nil {
			return nil, err
		}
		base.scenarios = max(1, spec.scenarios/5)
		rep, err := measureSim(base, runOpts{seed: o.seed})
		if err != nil {
			return nil, err
		}
		rep.attempted += warm.attempted
		rep.failed += warm.failed
		rep.violations = append(warm.violations, rep.violations...)
		return rep, nil
	})
}

func measureSim(spec simSpec, o runOpts) (*report, error) {
	rep := newReport()
	first := make([]scenarioOutcome, spec.scenarios)
	setup := func(i int) (*athena.Cluster, error) {
		c, gen, build, err := setupScenario(spec, scenarioSeed(o.seed, i))
		if err != nil {
			return nil, err
		}
		rep.addSetup(gen, build)
		return c, nil
	}
	var events int64
	begin := wallNow()
	for n := 0; n < spec.scenarios || wallSince(begin) < o.budget; n++ {
		i := n % spec.scenarios
		c, err := setup(i)
		if err != nil {
			return nil, err
		}
		t := startTimer()
		out, err := runScenario(c, spec)
		if err != nil {
			return nil, err
		}
		cpu := rep.cpu
		t.stop(rep, out.issued)
		if n < spec.scenarios {
			rep.scenarioCost = append(rep.scenarioCost, cost{cpu: rep.cpu - cpu, decisions: out.issued})
		}
		rep.attempted += out.issued
		rep.failed += out.failed
		rep.violations = append(rep.violations, out.violations...)
		events += out.events
		if n < spec.scenarios {
			first[i] = out
		} else if !reflect.DeepEqual(first[i], out) {
			rep.check(fmt.Sprintf("scenario seed %d did not repeat its outcome", scenarioSeed(o.seed, i)))
		}
	}
	for i := 0; len(rep.setupS) < minSetups; i++ {
		if _, err := setup(i % spec.scenarios); err != nil {
			return nil, err
		}
	}
	rep.layer["simclock.events_per_s"] = float64(events) / rep.timed.Seconds()
	rep.layer["athena.new_cluster_ms"] = percentile(rep.wireMs, 0.5)
	rep.addOutcomes(first)
	return rep, nil
}

// addOutcomes folds the deterministic first-pass outcomes into the report.
func (r *report) addOutcomes(outs []scenarioOutcome) {
	var node athena.Stats
	var net netsim.Stats
	counters := map[string]int64{}
	var events int64
	for _, o := range outs {
		r.issued += o.issued
		r.resolved += o.resolved
		r.wrong += o.wrong
		for _, l := range o.latencies {
			r.latMs = append(r.latMs, ms(l))
		}
		r.bytes += o.net.BytesSent
		node = addStats(node, o.node)
		net.MessagesSent += o.net.MessagesSent
		net.MessagesDelivered += o.net.MessagesDelivered
		net.MessagesDropped += o.net.MessagesDropped
		net.MessagesLost += o.net.MessagesLost
		events += o.events
		for k, v := range o.counters {
			counters[k] += v
		}
	}
	l := r.layer
	l["simclock.events"] = float64(events)
	l["netsim.sent"] = float64(net.MessagesSent)
	l["netsim.delivered"] = float64(net.MessagesDelivered)
	l["netsim.dropped"] = float64(net.MessagesDropped)
	l["netsim.lost"] = float64(net.MessagesLost)
	r.addNodeStats(node, counters)
}
