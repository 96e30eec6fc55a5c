package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"athena/internal/athena"
	"athena/internal/core"
	"athena/internal/metrics"
	"athena/internal/transport"
	"athena/internal/trust"
	"athena/internal/wire"
	"athena/internal/workload"
)

// The TCP fleet: tcpNodes in-process nodes in a full mesh over loopback
// sockets with the wire codec and athenad's defaults (scheme lvfl,
// static peers, prefetch on, coalescing off). Decisions arrive open
// loop, Poisson at tcpRate, from one goroutine; each is timed from its
// due time, so a stalled generator shows up as latency.
//
// Latencies are bimodal: a fast mode around a millisecond and a slow one
// reaching up to about the prefetch delay (250 ms). At 200 decisions/s
// each mode holds about half the decisions, so the median jumps between
// them from run to run; at 400/s it sits steadily inside the slow mode
// (measurements in README.md).
const (
	tcpNodes     = 8
	tcpRate      = 400.0 // decisions per second
	tcpDeadline  = 5 * time.Second
	tcpSlack     = time.Second // after the last deadline, before pending counts as a failure
	tcpSetups    = 50          // fleet set-ups per run; setup_s is their median
	tcpWarmupMax = time.Second
)

// tcpScenario is the fleet's deployment: a 4×4-grid scenario with the
// default generator seed, whose query set serves as the decision
// templates. The deployment is fixed, so runs differ in the decision
// stream --seed draws (arrival times and templates), not in topology.
func tcpScenario() workload.Config {
	c := workload.DefaultConfig()
	c.GridRows, c.GridCols = 4, 4
	c.Nodes = tcpNodes
	return c
}

// anchoredWorld is the scenario's world re-anchored at start: label
// values and their flip instants then fall at the same offsets into
// every run, instead of depending on where the wall clock stands in the
// generator's fixed epoch.
func anchoredWorld(s *workload.Scenario, start time.Time) *workload.World {
	c := s.Config
	w := workload.NewWorld(c.Seed, start, c.ProbViable, c.SlowValidity)
	for label := range s.Meta {
		w.SetPeriod(label, s.World.Period(label))
	}
	return w
}

// fleet is a running TCP deployment.
type fleet struct {
	scenario *workload.Scenario
	nodes    map[string]*athena.Node
	trs      []*transport.TCPTransport
	reg      *metrics.Registry
	sink     *resultSink
}

func (f *fleet) close() error {
	var errs []error
	for _, tr := range f.trs {
		errs = append(errs, tr.Close())
	}
	return errors.Join(errs...)
}

// setupFleet generates the deployment and wires the fleet: one listener,
// node and directory replica per placement, and every peer address on
// every node. With a span log the codec and the node's transport are
// wrapped in the tracing shims. The traced run excludes profile samples
// under this function from the per-module shares.
func setupFleet(spans *spanLog) (*fleet, time.Duration, time.Duration, error) {
	t0 := wallNow()
	s, err := workload.Generate(tcpScenario())
	if err != nil {
		return nil, 0, 0, err
	}
	s.World = anchoredWorld(s, t0)
	t1 := wallNow()
	f := &fleet{scenario: s, nodes: map[string]*athena.Node{}, reg: metrics.NewRegistry(), sink: newResultSink()}
	tm := transport.TCPMetrics{
		Sends:      f.reg.Counter("transport.sends"),
		SentBytes:  f.reg.Counter("transport.sent_bytes"),
		Redials:    f.reg.Counter("transport.redials"),
		SendErrors: f.reg.Counter("transport.send_errors"),
	}
	auth := trust.NewAuthority()
	for i, p := range s.Placements {
		var codec transport.Codec = wire.Codec{}
		if spans != nil {
			codec = tracedCodec{inner: codec, log: spans}
		}
		tr, err := transport.NewTCP(p.ID, "127.0.0.1:0", codec)
		if err != nil {
			return nil, 0, 0, errors.Join(err, f.close())
		}
		f.trs = append(f.trs, tr)
		tr.Instrument(tm)
		var nt transport.Transport = tr
		if spans != nil {
			nt = wrapTransport(tr, spans)
		}
		desc := s.Sources[i]
		node, err := athena.New(athena.Config{
			ID:         p.ID,
			Transport:  nt,
			Router:     &athena.StaticRouter{Self: p.ID},
			Timers:     athena.WallTimers{},
			Scheme:     athena.SchemeLVFL,
			Directory:  athena.NewDirectory(s.Sources),
			Meta:       s.Meta,
			World:      s.World,
			Authority:  auth,
			Signer:     auth.Register(p.ID, []byte("athenad-"+p.ID)),
			Policy:     trust.TrustAll(),
			Descriptor: &desc,
			CacheBytes: 64 << 20,
			Metrics:    f.reg,
		})
		if err != nil {
			return nil, 0, 0, errors.Join(err, f.close())
		}
		node.OnQueryDone(f.sink.add)
		f.nodes[p.ID] = node
	}
	for _, a := range f.trs {
		for _, b := range f.trs {
			if a != b {
				a.AddPeer(b.Self(), b.Addr())
			}
		}
	}
	return f, t1.Sub(t0), wallSince(t1), nil
}

// resultSink collects decision outcomes from the nodes' OnQueryDone
// callbacks.
type resultSink struct {
	mu  sync.Mutex
	res map[string]athena.QueryResult
}

func newResultSink() *resultSink { return &resultSink{res: map[string]athena.QueryResult{}} }

func (s *resultSink) add(r athena.QueryResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res[r.QueryID] = r
}

// awaitAll polls until every decision has an outcome or until passes.
func (s *resultSink) awaitAll(decs []tcpDecision, until time.Time) {
	i := 0
	for {
		s.mu.Lock()
		for i < len(decs) {
			if _, ok := s.res[decs[i].id]; !ok {
				break
			}
			i++
		}
		s.mu.Unlock()
		if i == len(decs) || !wallNow().Before(until) {
			return
		}
		wallSleep(5 * time.Millisecond)
	}
}

// tcpDecision is one decision of the open-loop load.
type tcpDecision struct {
	due time.Time
	q   workload.QuerySpec
	id  string
}

// phase is what one stretch of open-loop load produced.
type phase struct {
	decs []tcpDecision
	lags []float64 // generator lateness per decision, ms
	errs []string
}

// offerLoad issues decisions from the templates, Poisson at tcpRate, for
// dur, sleeping until each due time. QueryInit errors are recorded.
func offerLoad(f *fleet, rng *rand.Rand, dur time.Duration, spans *spanLog) phase {
	var p phase
	qs := f.scenario.Queries
	start := wallNow()
	next := start
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / tcpRate * float64(time.Second)))
		if next.Sub(start) >= dur {
			return p
		}
		q := qs[rng.Intn(len(qs))]
		wallSleep(next.Sub(wallNow()))
		t0 := wallNow()
		p.lags = append(p.lags, ms(t0.Sub(next)))
		id, err := f.nodes[q.Origin].QueryInit(q.Expr, tcpDeadline)
		spans.add(spanQueryInit, q.Expr, t0, 0)
		if err != nil {
			p.errs = append(p.errs, fmt.Sprintf("QueryInit at %s: %v", q.Origin, err))
			continue
		}
		p.decs = append(p.decs, tcpDecision{due: next, q: q, id: id})
	}
}

// drain waits for every decision of the phase to finish, at most until
// the last deadline plus slack; then no node may have one pending.
func drain(f *fleet, p phase, rep *report) {
	if len(p.decs) > 0 {
		f.sink.awaitAll(p.decs, p.decs[len(p.decs)-1].due.Add(tcpDeadline+tcpSlack))
	}
	for id, node := range f.nodes {
		if k := node.PendingQueries(); k > 0 {
			rep.check(fmt.Sprintf("%s has %d decisions pending after deadline plus slack", id, k))
		}
	}
}

// measureTCP sets the fleet up tcpSetups times (keeping the last),
// warms it, then offers open-loop load for the rest of the budget.
func measureTCP(o runOpts, spans *spanLog) (rep *report, err error) {
	rep = newReport()
	var f *fleet
	for i := 0; i < tcpSetups; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		var gen, wiring time.Duration
		f, gen, wiring, err = setupFleet(spans)
		if err != nil {
			return nil, err
		}
		rep.addSetup(gen, wiring)
	}
	defer func() {
		if cerr := f.close(); cerr != nil && err == nil {
			rep, err = nil, cerr
		}
	}()
	rep.layer["athena.fleet_wire_ms"] = percentile(rep.wireMs, 0.5)

	rng := rand.New(rand.NewSource(o.seed ^ 0x7cf1ee7))
	warm := o.budget / 10
	if warm > tcpWarmupMax {
		warm = tcpWarmupMax
	}
	w := offerLoad(f, rng, warm, nil)
	drain(f, w, rep)
	rep.attempted += len(w.decs) + len(w.errs)

	before := f.reg.Snapshot().Counters
	statsBefore := fleetStats(f)
	spans.reset()
	t := startTimer()
	p := offerLoad(f, rng, o.budget-warm, spans)
	drain(f, p, rep)
	t.stop(rep, 0)
	after := f.reg.Snapshot().Counters
	counters := map[string]int64{}
	for k, v := range after {
		counters[k] = v - before[k]
	}

	rep.attempted += len(p.decs) + len(p.errs)
	rep.failed += len(p.errs)
	for _, e := range p.errs {
		rep.check(e)
	}
	rep.issued = len(p.decs) + len(p.errs)
	f.sink.mu.Lock()
	for _, d := range p.decs {
		r, ok := f.sink.res[d.id]
		if !ok {
			rep.failed++
			continue
		}
		rep.finished++
		if r.Status != core.ResolvedTrue && r.Status != core.ResolvedFalse {
			continue
		}
		rep.resolved++
		rep.latMs = append(rep.latMs, ms(r.Finished.Sub(d.due)))
		if !matchesTruth(d.q.Expr, r.Status, f.scenario.World, r.Finished) {
			rep.wrong++
		}
	}
	f.sink.mu.Unlock()
	if missing := rep.issued - len(p.errs) - rep.finished; missing > 0 {
		rep.check(fmt.Sprintf("%d issued decisions never finished", missing))
	}
	if n := after["transport.send_errors"]; n > 0 {
		rep.check(fmt.Sprintf("%d transport send errors", n))
	}
	rep.bytes = counters["transport.sent_bytes"]
	rep.addNodeStats(subStats(fleetStats(f), statsBefore), counters)
	rep.layer["bench.gen_lag_p99_ms"] = percentile(p.lags, 0.99)
	for _, k := range []string{"transport.sends", "transport.sent_bytes", "transport.redials", "transport.send_errors"} {
		rep.layer[k] = float64(counters[k])
	}
	return rep, nil
}

func fleetStats(f *fleet) athena.Stats {
	var s athena.Stats
	for _, n := range f.nodes {
		s = addStats(s, n.Stats())
	}
	return s
}

func runTCPFleet(o runOpts) (*report, error) {
	if o.budget < 2*time.Second {
		return nil, errors.New("tcp-fleet needs --seconds of at least 2")
	}
	if !o.traced {
		return measureTCP(o, nil)
	}
	return tracedRun(o, measureTCP)
}
