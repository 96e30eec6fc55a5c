package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"athena/internal/athena"
	"athena/internal/boolexpr"
	"athena/internal/core"
	"athena/internal/metrics"
	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/transport"
	"athena/internal/trust"
	"athena/internal/wire"
)

// TestProfileAttribution records a CPU profile of a loop whose work is
// all in boolexpr and checks the decoder charges the samples that have a
// repo frame to it. Samples without one (GC, and the race detector's
// runtime under -race) go to runtime.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	const src = "(a & b & c) | (d & e & !f) | (g & (h | i) & j) | (k & l & m & n)"
	sink := 0
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		sink += len(boolexpr.ToDNF(boolexpr.MustParse(src)).Terms)
	}
	pprof.StopCPUProfile()
	if sink == 0 {
		t.Fatal("hot loop did no work")
	}
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	shares := moduleShares(samples)
	if attributed := 100 - shares["runtime"]; shares["boolexpr"] == 0 || shares["boolexpr"] < 0.9*attributed {
		t.Fatalf("boolexpr share = %.1f%% of %.1f%% attributed, want nearly all; shares %v", shares["boolexpr"], attributed, shares)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"athena/internal/athena.(*Node).handleMessage":   "athena",
		"athena/internal/names.(*Trie[go.shape.*]).Get":  "names",
		"athena/internal/simclock.(*Lane).runWindow.fn1": "simclock",
		"main.runScenario":       "bench",
		"runtime.gcBgMarkWorker": "",
		"sort.Slice":             "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// staticWorld is a fixed ground truth.
type staticWorld map[string]bool

func (w staticWorld) LabelValue(label string, _ time.Time) bool { return w[label] }

// oneTCPDecision runs one decision between an origin and a source over
// loopback TCP, wrapped in the tracing shims when spans is non-nil, and
// returns its status and the frames the pair sent.
func oneTCPDecision(t *testing.T, spans *spanLog) (core.Status, int64) {
	t.Helper()
	desc := object.Descriptor{
		Name:     names.MustParse("/bench/cam"),
		Size:     100_000,
		Validity: time.Minute,
		Labels:   []string{"a", "b"},
		Source:   "src",
		ProbTrue: 0.8,
	}
	meta := boolexpr.MetaTable{
		"a": {Cost: 100_000, ProbTrue: 0.8, Validity: time.Minute},
		"b": {Cost: 100_000, ProbTrue: 0.8, Validity: time.Minute},
	}
	reg := metrics.NewRegistry()
	auth := trust.NewAuthority()
	nodes := map[string]*athena.Node{}
	var trs []*transport.TCPTransport
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	for _, id := range []string{"origin", "src"} {
		var codec transport.Codec = wire.Codec{}
		if spans != nil {
			codec = tracedCodec{inner: codec, log: spans}
		}
		tr, err := transport.NewTCP(id, "127.0.0.1:0", codec)
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
		tr.Instrument(transport.TCPMetrics{Sends: reg.Counter("sends")})
		var nt transport.Transport = tr
		if spans != nil {
			nt = wrapTransport(tr, spans)
		}
		var d *object.Descriptor
		if id == "src" {
			d = &desc
		}
		n, err := athena.New(athena.Config{
			ID: id, Transport: nt, Router: &athena.StaticRouter{Self: id},
			Timers: athena.WallTimers{}, Scheme: athena.SchemeLVFL,
			Directory: athena.NewDirectory([]object.Descriptor{desc}), Meta: meta,
			World: staticWorld{"a": true, "b": false}, Authority: auth,
			Signer: auth.Register(id, []byte(id)), Policy: trust.TrustAll(),
			Descriptor: d, CacheBytes: 8 << 20, DisablePrefetch: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	trs[0].AddPeer("src", trs[1].Addr())
	trs[1].AddPeer("origin", trs[0].Addr())

	done := make(chan athena.QueryResult, 1)
	nodes["origin"].OnQueryDone(func(r athena.QueryResult) { done <- r })
	if _, err := nodes["origin"].QueryInit(boolexpr.ToDNF(boolexpr.MustParse("a & b")), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	var r athena.QueryResult
	select {
	case r = <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("decision did not finish")
	}
	// Let trailing frames (label shares) land before counting.
	time.Sleep(300 * time.Millisecond)
	return r.Status, reg.Snapshot().Counter("sends")
}

// TestTracedTransportParity checks that the tracing shims change
// nothing the node does: one decision ends in the same status with the
// same frame count over the wrapped transport and codec as over the bare
// ones, and the wrapper offers exactly the inner transport's optional
// interfaces.
func TestTracedTransportParity(t *testing.T) {
	bareStatus, bareFrames := oneTCPDecision(t, nil)
	spans := newSpanLog()
	status, frames := oneTCPDecision(t, spans)
	if status != bareStatus || frames != bareFrames {
		t.Fatalf("traced: %v with %d frames; bare: %v with %d frames", status, frames, bareStatus, bareFrames)
	}
	if bareStatus != core.ResolvedFalse {
		t.Fatalf("status = %v, want resolved-false (b is false)", bareStatus)
	}
	layer := map[string]float64{}
	spans.summarize(layer, &bytes.Buffer{})
	if layer["wire.frames"] != float64(frames) || layer["athena.handled_msgs"] != float64(frames) {
		t.Fatalf("spans saw %v encodes and %v handled messages, want %d each", layer["wire.frames"], layer["athena.handled_msgs"], frames)
	}

	tr, err := transport.NewTCP("x", "127.0.0.1:0", wire.Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var inner, wrapped transport.Transport = tr, wrapTransport(tr, nil)
	for name, has := range map[string]func(transport.Transport) bool{
		"PrioritySender": func(x transport.Transport) bool { _, ok := x.(transport.PrioritySender); return ok },
		"PeerAdder":      func(x transport.Transport) bool { _, ok := x.(transport.PeerAdder); return ok },
		"Addresser":      func(x transport.Transport) bool { _, ok := x.(transport.Addresser); return ok },
		"PeerLister":     func(x transport.Transport) bool { _, ok := x.(transport.PeerLister); return ok },
	} {
		if has(inner) != has(wrapped) {
			t.Errorf("%s: inner %v, wrapped %v", name, has(inner), has(wrapped))
		}
	}
}

// deterministic is the part of a sim report that is a pure function of
// the seed.
func deterministic(r *report) map[string]float64 {
	e := r.endToEnd()
	out := map[string]float64{"issued": float64(r.issued), "wrong": float64(r.wrong)}
	for _, k := range []string{"resolved_ratio", "accuracy", "decision_p50_ms", "decision_p90_ms", "decision_p99_ms", "bytes_per_decision"} {
		out[k] = e[k].Value
	}
	return out
}

func smokeSim(t *testing.T, spec simSpec, o runOpts) *report {
	t.Helper()
	rep, err := measureSim(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.violations) > 0 {
		t.Fatalf("correctness checks failed: %v", rep.violations)
	}
	if rep.issued == 0 || rep.resolved == 0 {
		t.Fatalf("issued %d, resolved %d", rep.issued, rep.resolved)
	}
	return rep
}

// TestSimPaperSmokeRepeats runs a two-scenario sim-paper twice (each run
// repeats its scenarios once more) and checks the deterministic metrics
// are identical.
func TestSimPaperSmokeRepeats(t *testing.T) {
	spec := simPaper
	spec.scenarios = 2
	o := runOpts{seed: 7, budget: time.Nanosecond}
	a := deterministic(smokeSim(t, spec, o))
	b := deterministic(smokeSim(t, spec, o))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different outcomes:\n%v\n%v", a, b)
	}
}

// TestSimFleetWorkerInvariant checks one sim-fleet scenario gives the
// same decision metrics at one and two kernel workers.
func TestSimFleetWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("sim-fleet scenario takes several seconds")
	}
	spec := simFleet
	spec.scenarios = 1
	o := runOpts{seed: 3, budget: time.Nanosecond}
	spec.cluster.Workers = 1
	w1 := deterministic(smokeSim(t, spec, o))
	spec.cluster.Workers = 2
	w2 := deterministic(smokeSim(t, spec, o))
	if !reflect.DeepEqual(w1, w2) {
		t.Fatalf("workers changed the outcome:\nW=1 %v\nW=2 %v", w1, w2)
	}
}

func TestTCPFleetSmoke(t *testing.T) {
	rep, err := measureTCP(runOpts{seed: 5, budget: 2 * time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.violations) > 0 {
		t.Fatalf("correctness checks failed: %v", rep.violations)
	}
	if rep.issued == 0 || rep.resolved == 0 || rep.bytes == 0 {
		t.Fatalf("issued %d, resolved %d, bytes %d", rep.issued, rep.resolved, rep.bytes)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metric sets and
// the declared ones in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		printed  map[string]string
	}{{decl.EndToEnd, endToEndUnits}, {decl.PerLayer, layerUnits}} {
		got := map[string]string{}
		for _, m := range c.declared {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, c.printed) {
			t.Errorf("BENCHMARK.json declares %v, the benchmark prints %v", got, c.printed)
		}
	}
}
