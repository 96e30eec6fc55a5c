package athena_test

import (
	"testing"
	"time"

	"athena/internal/athena"
	"athena/internal/boolexpr"
	"athena/internal/core"
	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/transport"
	"athena/internal/trust"
	"athena/internal/wire"
)

// staticWorld is a fixed ground truth, duplicated from the in-package
// tests (this file lives in the external test package so it can use the
// internal/wire codec, which itself imports athena).
type staticWorld map[string]bool

func (w staticWorld) LabelValue(label string, _ time.Time) bool { return w[label] }

// TestTCPThreeNodeRelay runs three Athena nodes as the paper deployed
// them — separate endpoints addressed by IP:PORT — with the origin and
// source not directly connected: origin <-> relay <-> source. The query
// must resolve through real TCP sockets with hop-by-hop forwarding.
func TestTCPThreeNodeRelay(t *testing.T) {
	world := staticWorld{"remoteA": true, "remoteB": true}
	desc := object.Descriptor{
		Name:     names.MustParse("/tcp/cam"),
		Size:     100_000,
		Validity: time.Minute,
		Labels:   []string{"remoteA", "remoteB"},
		Source:   "source",
		ProbTrue: 0.8,
	}
	dir := athena.NewDirectory([]object.Descriptor{desc})
	auth := trust.NewAuthority()
	meta := boolexpr.MetaTable{
		"remoteA": {Cost: 100_000, ProbTrue: 0.8, Validity: time.Minute},
		"remoteB": {Cost: 100_000, ProbTrue: 0.8, Validity: time.Minute},
	}

	mk := func(id string, d *object.Descriptor, routes map[string]string) (*athena.Node, *transport.TCPTransport) {
		t.Helper()
		tr, err := transport.NewTCP(id, "127.0.0.1:0", wire.Codec{})
		if err != nil {
			t.Fatal(err)
		}
		node, err := athena.New(athena.Config{
			ID:        id,
			Transport: tr,
			Router:    &athena.StaticRouter{Self: id, NextHops: routes},
			Timers:    athena.WallTimers{},
			Scheme:    athena.SchemeLVFL,
			Directory: dir,
			Meta:      meta,
			World:     world,
			Authority: auth,
			Signer:    auth.Register(id, []byte(id)),
			Policy:    trust.TrustAll(),

			Descriptor: d,
			CacheBytes: 8 << 20,
		})
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		return node, tr
	}

	// origin can only dial relay; source can only dial relay.
	origin, originTr := mk("origin", nil, map[string]string{"source": "relay"})
	defer originTr.Close()
	_, relayTr := mk("relay", nil, nil)
	defer relayTr.Close()
	_, sourceTr := mk("source", &desc, map[string]string{"origin": "relay"})
	defer sourceTr.Close()

	originTr.AddPeer("relay", relayTr.Addr())
	relayTr.AddPeer("origin", originTr.Addr())
	relayTr.AddPeer("source", sourceTr.Addr())
	sourceTr.AddPeer("relay", relayTr.Addr())

	done := make(chan athena.QueryResult, 1)
	origin.OnQueryDone(func(r athena.QueryResult) { done <- r })
	expr := boolexpr.ToDNF(boolexpr.MustParse("remoteA & remoteB"))
	if _, err := origin.QueryInit(expr, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.Status != core.ResolvedTrue {
			t.Fatalf("status = %v", r.Status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for decision over TCP")
	}
}

// TestTCPLabelSharingAcrossProcesses verifies that a second consumer is
// answered with signed label records over TCP after the first resolved
// the same predicates.
func TestTCPLabelSharingAcrossProcesses(t *testing.T) {
	world := staticWorld{"shared1": true}
	desc := object.Descriptor{
		Name:     names.MustParse("/tcp/share/cam"),
		Size:     500_000,
		Validity: time.Minute,
		Labels:   []string{"shared1"},
		Source:   "src",
		ProbTrue: 0.8,
	}
	dir := athena.NewDirectory([]object.Descriptor{desc})
	auth := trust.NewAuthority()
	meta := boolexpr.MetaTable{"shared1": {Cost: 500_000, ProbTrue: 0.8, Validity: time.Minute}}

	mk := func(id string, d *object.Descriptor) (*athena.Node, *transport.TCPTransport) {
		t.Helper()
		tr, err := transport.NewTCP(id, "127.0.0.1:0", wire.Codec{})
		if err != nil {
			t.Fatal(err)
		}
		node, err := athena.New(athena.Config{
			ID: id, Transport: tr, Router: &athena.StaticRouter{Self: id},
			Timers: athena.WallTimers{}, Scheme: athena.SchemeLVFL, Directory: dir,
			Meta: meta, World: world, Authority: auth,
			Signer: auth.Register(id, []byte(id)), Policy: trust.TrustAll(),
			Descriptor: d, CacheBytes: 8 << 20,
		})
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		return node, tr
	}

	consumerA, trA := mk("consumerA", nil)
	defer trA.Close()
	consumerB, trB := mk("consumerB", nil)
	defer trB.Close()
	src, trSrc := mk("src", &desc)
	defer trSrc.Close()

	// Both consumers talk to the source directly; B's request should be
	// answered from the source's label cache after A's annotation labels
	// propagate back (dest = source).
	trA.AddPeer("src", trSrc.Addr())
	trB.AddPeer("src", trSrc.Addr())
	trSrc.AddPeer("consumerA", trA.Addr())
	trSrc.AddPeer("consumerB", trB.Addr())

	expr := boolexpr.ToDNF(boolexpr.MustParse("shared1"))
	doneA := make(chan athena.QueryResult, 1)
	consumerA.OnQueryDone(func(r athena.QueryResult) { doneA <- r })
	if _, err := consumerA.QueryInit(expr, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-doneA:
		if r.Status != core.ResolvedTrue {
			t.Fatalf("consumerA status = %v", r.Status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("consumerA timed out")
	}

	// Give consumerA's label-share propagation a moment to reach and be
	// cached at the source before consumerB asks.
	time.Sleep(200 * time.Millisecond)

	doneB := make(chan athena.QueryResult, 1)
	consumerB.OnQueryDone(func(r athena.QueryResult) { doneB <- r })
	if _, err := consumerB.QueryInit(expr, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-doneB:
		if r.Status != core.ResolvedTrue {
			t.Fatalf("consumerB status = %v", r.Status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("consumerB timed out")
	}
	if src.Stats().LabelAnswers == 0 {
		t.Error("source answered consumerB with the object, not cached labels")
	}
}

// TestTCPPrefetchBacklogDoesNotHoldDecision pins the fetch queue's
// priority over background prefetch on the wall-clock path: a source
// whose prefetch queue is backed up behind a long pacing delay must
// still answer its own decision at once, not after the next paced push.
func TestTCPPrefetchBacklogDoesNotHoldDecision(t *testing.T) {
	const prefetchDelay = 2 * time.Second
	world := staticWorld{"paceL": true}
	desc := object.Descriptor{
		Name:     names.MustParse("/tcp/pace/cam"),
		Size:     10_000,
		Validity: time.Minute,
		Labels:   []string{"paceL"},
		Source:   "src",
		ProbTrue: 0.8,
	}
	dir := athena.NewDirectory([]object.Descriptor{desc})
	auth := trust.NewAuthority()
	meta := boolexpr.MetaTable{"paceL": {Cost: 10_000, ProbTrue: 0.8, Validity: time.Minute}}

	mk := func(id string, d *object.Descriptor) (*athena.Node, *transport.TCPTransport) {
		t.Helper()
		tr, err := transport.NewTCP(id, "127.0.0.1:0", wire.Codec{})
		if err != nil {
			t.Fatal(err)
		}
		node, err := athena.New(athena.Config{
			ID: id, Transport: tr, Router: &athena.StaticRouter{Self: id},
			Timers: athena.WallTimers{}, Scheme: athena.SchemeLVFL, Directory: dir,
			Meta: meta, World: world, Authority: auth,
			Signer: auth.Register(id, []byte(id)), Policy: trust.TrustAll(),
			Descriptor: d, CacheBytes: 8 << 20, PrefetchDelay: prefetchDelay,
		})
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		return node, tr
	}
	origin, originTr := mk("origin", nil)
	defer originTr.Close()
	src, srcTr := mk("src", &desc)
	defer srcTr.Close()
	originTr.AddPeer("src", srcTr.Addr())
	srcTr.AddPeer("origin", originTr.Addr())

	// Every announce of a decision on paceL queues a prefetch task at
	// src; src pushes for the first and paces the rest prefetchDelay
	// apart.
	expr := boolexpr.ToDNF(boolexpr.MustParse("paceL"))
	for i := 0; i < 20; i++ {
		if _, err := origin.QueryInit(expr, 20*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); src.Stats().PrefetchPushes == 0; {
		if time.Now().After(deadline) {
			t.Fatal("src never pushed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Let the rest of the announces land behind the first push.
	time.Sleep(100 * time.Millisecond)

	done := make(chan athena.QueryResult, 1)
	src.OnQueryDone(func(r athena.QueryResult) { done <- r })
	start := time.Now()
	if _, err := src.QueryInit(expr, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.Status != core.ResolvedTrue {
			t.Fatalf("status = %v", r.Status)
		}
		if took := time.Since(start); took > 500*time.Millisecond {
			t.Errorf("own-sensor decision took %v behind a prefetch backlog paced at %v", took, prefetchDelay)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the local decision")
	}
}

// TestTCPMembershipLifecycle drives the full membership arc over real
// sockets — the exact code path the simulator exercises: three sources
// join an origin through the PeerJoin handshake (no static directory —
// the origin starts knowing nobody), a query resolves via the cheapest
// source, that source leaves gracefully (tombstone), a second source dies
// ungracefully (heartbeat eviction), and a final query is re-sourced to
// the last source standing.
func TestTCPMembershipLifecycle(t *testing.T) {
	world := staticWorld{"live": true}
	auth := trust.NewAuthority()
	meta := boolexpr.MetaTable{"live": {Cost: 100_000, ProbTrue: 0.8, Validity: time.Minute}}
	descFor := func(id string, size int64) *object.Descriptor {
		return &object.Descriptor{
			Name:     names.MustParse("/tcp/member/" + id),
			Size:     size,
			Validity: time.Minute,
			Labels:   []string{"live"},
			Source:   id,
			ProbTrue: 0.8,
		}
	}

	mk := func(id string, d *object.Descriptor) (*athena.Node, *transport.TCPTransport) {
		t.Helper()
		tr, err := transport.NewTCP(id, "127.0.0.1:0", wire.Codec{})
		if err != nil {
			t.Fatal(err)
		}
		// Fail sends to dead peers fast: membership sends hold the node
		// lock, and eviction is how dead peers are handled anyway.
		tr.SetRetryPolicy(1, 0)
		node, err := athena.New(athena.Config{
			ID: id, Transport: tr, Router: &athena.StaticRouter{Self: id},
			Timers: athena.WallTimers{}, Scheme: athena.SchemeLVF,
			Directory: athena.NewDirectory(nil), // learned entirely from joins
			Meta:      meta, World: world, Authority: auth,
			Signer: auth.Register(id, []byte(id)), Policy: trust.TrustAll(),
			Descriptor: d, CacheBytes: 8 << 20,
			HeartbeatInterval: 100 * time.Millisecond,
			HeartbeatMiss:     3,
		})
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		return node, tr
	}

	origin, trOrigin := mk("origin", nil)
	defer trOrigin.Close()
	srcA, trA := mk("srcA", descFor("srcA", 100_000))
	defer trA.Close()
	srcB, trB := mk("srcB", descFor("srcB", 200_000))
	defer trB.Close()
	srcC, trC := mk("srcC", descFor("srcC", 300_000))
	defer trC.Close()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Join handshake: each source knows only the origin's address; the
	// origin learns theirs from the PeerJoin, and the acks carry the peer
	// map so later joiners can complete the mesh.
	for _, s := range []struct {
		n  *athena.Node
		tr *transport.TCPTransport
	}{{srcA, trA}, {srcB, trB}, {srcC, trC}} {
		s.tr.AddPeer("origin", trOrigin.Addr())
		if err := s.n.Join("origin"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor("origin to admit all three sources", func() bool {
		d := origin.Directory()
		return d.Has("srcA") && d.Has("srcB") && d.Has("srcC")
	})

	// Query 1 resolves via srcA, the cheapest advertised source.
	expr := boolexpr.ToDNF(boolexpr.MustParse("live"))
	run := func(name string) {
		t.Helper()
		done := make(chan athena.QueryResult, 1)
		origin.OnQueryDone(func(r athena.QueryResult) { done <- r })
		if _, err := origin.QueryInit(expr, 15*time.Second); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-done:
			if r.Status != core.ResolvedTrue {
				t.Fatalf("%s: status = %v", name, r.Status)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: timed out", name)
		}
	}
	run("query via srcA")
	if origin.Directory().SourceForLabel("live", nil) != "srcA" {
		t.Fatalf("expected srcA to be the preferred source")
	}

	// Graceful leave: srcA floods a tombstone; everyone drops it at once.
	if err := srcA.Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor("srcA tombstone at origin", func() bool {
		_, present, withdrawn := origin.Directory().Known("srcA")
		return !present && withdrawn
	})
	waitFor("srcA tombstone at srcC", func() bool {
		_, present, withdrawn := srcC.Directory().Known("srcA")
		return !present && withdrawn
	})

	// Ungraceful death: srcB's transport is severed; the origin's failure
	// detector evicts it after the missed-heartbeat budget.
	trB.Close()
	waitFor("srcB eviction at origin", func() bool {
		return !origin.Directory().Has("srcB")
	})
	if origin.Stats().Evictions == 0 {
		t.Fatal("srcB disappeared without an eviction")
	}

	// Query 2 must be re-sourced to srcC, the last source standing.
	run("query re-sourced to srcC")
	if got := origin.Directory().SourceForLabel("live", nil); got != "srcC" {
		t.Fatalf("after leave+eviction, preferred source = %q, want srcC", got)
	}
	_ = srcB // kept alive for its deferred close
}

// TestTCPGossipJoinAddressDissemination pins the join re-flood: under
// SWIM gossip over TCP, every member needs a dialable address for every
// other member — probes and acks are point-to-point, not flooded — but a
// joiner only handshakes with one of them. Before the re-flood, a member
// that joined earlier never learned a later joiner's address; its probes
// (or acks to the joiner's probes) were undeliverable, and after one
// suspicion window a live node was evicted fleet-wide by a gossiped death
// notice. The test stands up origin + two sources that each know only the
// origin, waits through several suspicion windows, and requires zero
// evictions and a fully-meshed address table.
func TestTCPGossipJoinAddressDissemination(t *testing.T) {
	world := staticWorld{"live": true}
	auth := trust.NewAuthority()
	meta := boolexpr.MetaTable{"live": {Cost: 100_000, ProbTrue: 0.8, Validity: time.Minute}}

	mk := func(id string, d *object.Descriptor) (*athena.Node, *transport.TCPTransport) {
		t.Helper()
		tr, err := transport.NewTCP(id, "127.0.0.1:0", wire.Codec{})
		if err != nil {
			t.Fatal(err)
		}
		tr.SetRetryPolicy(1, 0)
		node, err := athena.New(athena.Config{
			ID: id, Transport: tr, Router: &athena.StaticRouter{Self: id},
			Timers: athena.WallTimers{}, Scheme: athena.SchemeLVF,
			Directory: athena.NewDirectory(nil),
			Meta:      meta, World: world, Authority: auth,
			Signer: auth.Register(id, []byte(id)), Policy: trust.TrustAll(),
			Descriptor: d, CacheBytes: 8 << 20,
			HeartbeatInterval: 100 * time.Millisecond,
			HeartbeatMiss:     3,
			GossipFanout:      2,
			SuspectTimeout:    300 * time.Millisecond,
		})
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		return node, tr
	}

	descFor := func(id string) *object.Descriptor {
		return &object.Descriptor{
			Name:     names.MustParse("/tcp/gossip/" + id),
			Size:     100_000,
			Validity: time.Minute,
			Labels:   []string{"live"},
			Source:   id,
			ProbTrue: 0.8,
		}
	}

	origin, trOrigin := mk("origin", nil)
	defer trOrigin.Close()
	camA, trA := mk("camA", descFor("camA"))
	defer trA.Close()
	camB, trB := mk("camB", descFor("camB"))
	defer trB.Close()

	// Staggered joins through the origin only: camA is already a member
	// when camB arrives, so camA can learn camB's address only from the
	// re-flooded join.
	trA.AddPeer("origin", trOrigin.Addr())
	if err := camA.Join("origin"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !origin.Directory().Has("camA") {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for camA to join")
		}
		time.Sleep(20 * time.Millisecond)
	}
	trB.AddPeer("origin", trOrigin.Addr())
	if err := camB.Join("origin"); err != nil {
		t.Fatal(err)
	}

	// Several suspicion windows (300ms timeout, 100ms probe interval):
	// long enough that an undeliverable probe path would have evicted.
	time.Sleep(3 * time.Second)

	for _, n := range []*athena.Node{origin, camA, camB} {
		if ev := n.Stats().Evictions; ev != 0 {
			t.Errorf("%s evicted %d live members", n.ID(), ev)
		}
		for _, member := range []string{"camA", "camB"} {
			if !n.Directory().Has(member) {
				t.Errorf("%s lost %s from its directory", n.ID(), member)
			}
		}
	}
	if addr := trA.Peers()["camB"]; addr != trB.Addr() {
		t.Errorf("camA's address for camB = %q, want %q", addr, trB.Addr())
	}
	if addr := trB.Peers()["camA"]; addr != trA.Addr() {
		t.Errorf("camB's address for camA = %q, want %q", addr, trA.Addr())
	}
}
