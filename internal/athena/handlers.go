package athena

import (
	"sort"
	"time"

	"athena/internal/boolexpr"
	"athena/internal/core"
	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/transport"
	"athena/internal/trust"
)

// handleMessage is the transport receive entry point.
func (n *Node) handleMessage(from string, size int64, payload any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	// Everything this frame's handlers coalesced in response ships when
	// the dispatch ends (the Nagle push) — a batched arrival's fan-out
	// re-batches on the way out without waiting out a window.
	defer n.flushBursts()
	// Payloads are pointers end to end — sent as pointers, decoded as
	// pointers by internal/wire — so a multi-hop forward re-sends the
	// same allocation instead of re-boxing a struct copy per hop.
	// Handlers that mutate a message before forwarding copy it first.
	switch msg := payload.(type) {
	case *QueryAnnounce:
		n.handleAnnounce(from, msg)
	case *ObjectRequest:
		n.handleRequest(from, msg)
	case *ObjectData:
		n.handleData(from, msg)
	case *RequestBatch:
		// Unpack a coalesced frame and run every member through the
		// ordinary handler: interest fan-out, forwarding, and (at the
		// next hop) re-coalescing all happen per member.
		for i := range msg.Requests {
			n.handleRequest(from, &msg.Requests[i])
		}
	case *DataBatch:
		for i := range msg.Items {
			n.handleData(from, &msg.Items[i])
		}
	case *LabelShare:
		n.handleLabelShare(from, msg)
	case *Heartbeat:
		n.handleHeartbeat(from, msg)
	case *AdvertGossip:
		n.handleGossip(from, msg)
	case *PeerJoin:
		n.handlePeerJoin(from, msg)
	case *PeerJoinAck:
		n.handlePeerJoinAck(from, msg)
	case *PeerLeave:
		n.handlePeerLeave(from, msg)
	case *SyncRequest:
		n.handleSyncRequest(from, msg)
	case *SyncResponse:
		n.handleSyncResponse(from, msg)
	case *Ping:
		n.handlePing(from, msg)
	case *Ack:
		n.handleAck(from, msg)
	case *PingReq:
		n.handlePingReq(from, msg)
	case *ShardLookup:
		n.handleShardLookup(from, msg)
	case *ShardLookupReply:
		n.handleShardLookupReply(from, msg)
	case *ShardSyncRequest:
		n.handleShardSyncRequest(from, msg)
	case *ShardSyncResponse:
		n.handleShardSyncResponse(from, msg)
	}
}

// sendTo routes a message toward dest via the next hop, accounting for
// routing failures. Callers hold n.mu.
func (n *Node) sendTo(dest string, size int64, payload any) {
	n.sendToPri(dest, size, payload, 0)
}

func (n *Node) sendToPri(dest string, size int64, payload any, priority int) {
	if dest == n.id {
		return
	}
	hop, err := n.router.NextHop(n.id, dest)
	if err != nil {
		n.stats.RoutingDrops++
		return
	}
	// Default-priority data-plane traffic may coalesce with other messages
	// headed for the same next hop (coalesce.go); everything else — and
	// everything when batching is off — ships in its own frame.
	if priority == 0 {
		switch m := payload.(type) {
		case *ObjectRequest:
			if n.enqueueRequest(hop, m) {
				return
			}
		case *ObjectData:
			if n.enqueueData(hop, m) {
				return
			}
		}
	}
	if err := n.transmit(hop, size, payload, priority); err != nil {
		n.stats.RoutingDrops++
	}
}

// transmit sends to a direct neighbor, using the priority class when the
// transport supports one (Section V-C).
func (n *Node) transmit(neighbor string, size int64, payload any, priority int) error {
	switch payload.(type) {
	case *ObjectRequest, *ObjectData, *RequestBatch, *DataBatch:
		n.stats.DataFrames++
	}
	if priority > 0 {
		if ps, ok := n.tr.(transport.PrioritySender); ok {
			return ps.SendPriority(neighbor, size, priority, payload)
		}
	}
	return n.tr.Send(neighbor, size, payload)
}

// isCritical reports whether an object name falls in the critical part of
// the name space (Section V-C).
func (n *Node) isCritical(objName string) bool {
	if n.criticalPrefix.IsZero() {
		return false
	}
	name, err := names.Parse(objName)
	if err != nil {
		return false
	}
	return name.HasPrefix(n.criticalPrefix)
}

// floodAnnounce fans a query announcement out to all neighbors except the
// one it came from. Callers hold n.mu.
func (n *Node) floodAnnounce(a *QueryAnnounce, except string) {
	for _, nb := range n.tr.Neighbors() {
		if nb == except {
			continue
		}
		if err := n.tr.Send(nb, a.WireSize(), a); err != nil {
			n.stats.RoutingDrops++
		}
	}
}

// handleAnnounce implements the prefetch side of Query_Recv: remember the
// query, queue background prefetch of any locally sourced objects it
// needs, and keep flooding within the TTL.
func (n *Node) handleAnnounce(from string, a *QueryAnnounce) {
	if n.seenAnnounce[a.QueryID] {
		return
	}
	n.seenAnnounce[a.QueryID] = true

	// Prefetch (Section VI-A): background-push this node's object toward
	// the origin, but only when it is the cheapest source for a needed
	// label and close to the origin — unselective pushing would flood the
	// network with redundant evidence.
	if !n.disablePrefetch && n.desc != nil && a.Origin != n.id &&
		!n.pushed[a.QueryID] && a.Hops < 2 {
		expr, err := boolexpr.Parse(a.Expr)
		if err == nil {
			needed := make(map[string]bool)
			for _, l := range boolexpr.Labels(expr) {
				needed[l] = true
			}
			for _, l := range n.desc.Labels {
				if needed[l] && n.dir.SourceForLabel(l, nil) == n.id {
					n.pushed[a.QueryID] = true
					n.prefetchQ = append(n.prefetchQ, prefetchTask{origin: a.Origin, queryID: a.QueryID})
					n.kick()
					break
				}
			}
		}
	}

	if a.TTL > 1 {
		// The incoming message is shared with other receivers; copy
		// before stamping this hop's TTL/Hops.
		fwd := *a
		fwd.TTL--
		fwd.Hops++
		n.floodAnnounce(&fwd, from)
	}
}

// handleRequest implements Request_Recv (Section VI-B): answer from the
// label cache (lvfl) or content store, sample if this node is the source,
// otherwise bookmark interest and forward fetches toward the source.
func (n *Node) handleRequest(from string, req *ObjectRequest) {
	now := n.now()

	// Label-cache answer: if label sharing is on and fresh records cover
	// everything the requester wants, reply with records instead of the
	// object — "several orders of magnitude resource savings".
	if n.scheme == SchemeLVFL && len(req.Labels) > 0 {
		records := make([]trust.Label, 0, len(req.Labels))
		covered := true
		for _, l := range req.Labels {
			rec, ok := n.labels.Get(l, trust.TrustAll(), now)
			if !ok {
				covered = false
				break
			}
			records = append(records, *rec)
		}
		if covered {
			n.stats.LabelAnswers++
			share := &LabelShare{Records: records, Dest: req.Origin, QueryID: req.QueryID}
			n.sendTo(req.Origin, share.WireSize(), share)
			return
		}
	}

	// Content-store answer, returned along the reverse path. With
	// approximate substitution enabled (Section V-A), a cached object of
	// a sufficiently similar name may stand in for the requested one, as
	// long as it actually evidences something the requester wants.
	if name, err := names.Parse(req.Object); err == nil {
		if obj, ok := n.store.Get(name, now); ok {
			if n.duplicateInFlight(req.Object, from, obj.Size, now) {
				return
			}
			n.stats.CacheAnswers++
			n.sendDataTo(from, obj, req.Origin, req.QueryID, false)
			return
		}
		// Critical-namespace objects are exempt from approximation
		// (Section V-C): consumers get the real thing or nothing.
		if n.approxMinSim > 0 && !n.isCritical(req.Object) {
			if obj, ok := n.store.GetApprox(name, n.approxMinSim, now); ok && coversAnyLabel(obj, req.Labels) {
				if n.duplicateInFlight(req.Object, from, obj.Size, now) {
					return
				}
				n.stats.CacheAnswers++
				n.stats.ApproxAnswers++
				n.sendDataTo(from, obj, req.Origin, req.QueryID, false)
				return
			}
		}
	}

	// Source answer: sample the sensor.
	if req.SourceNode == n.id && n.desc != nil {
		obj := n.sample(now)
		if n.duplicateInFlight(req.Object, from, obj.Size, now) {
			return
		}
		n.sendDataTo(from, obj, req.Origin, req.QueryID, false)
		return
	}

	// Prefetch requests are never forwarded.
	if req.Prefetch {
		return
	}

	alreadyPending := n.interest.Add(req.Object, req.Origin, req.QueryID, from, req.Labels, now)
	if !alreadyPending {
		n.forwardRequest(req, 0)
	}
}

// duplicateInFlight reports whether this object was already sent to the
// neighbor so recently that the copy is plausibly still serializing on
// the link — in which case the request is almost certainly a spurious
// retransmit racing a slow transfer, and answering it again would only
// add a redundant full copy to the congestion that delayed the first.
// The in-flight window is the same size allowance the retry timers use
// (Size/RetryBandwidth), so a genuine loss is still recovered: the
// requester's next retransmit lands at least one base interval past the
// window and gets answered. When true, the send is suppressed; when
// false, the window is (re)armed for the send the caller is about to
// make. Callers hold n.mu.
func (n *Node) duplicateInFlight(objName, neighbor string, size int64, now time.Time) bool {
	if n.disableRetries || n.retryBandwidth <= 0 {
		return false
	}
	key := objName + "\x00" + neighbor
	if until, ok := n.sentRecently[key]; ok && now.Before(until) {
		n.stats.DupSuppressed++
		return true
	}
	if len(n.sentRecently) > 4096 {
		for k, until := range n.sentRecently {
			if !now.Before(until) {
				delete(n.sentRecently, k)
			}
		}
	}
	n.sentRecently[key] = now.Add(time.Duration(float64(size) / n.retryBandwidth * float64(time.Second)))
	return false
}

// forwardRequest sends a request upstream toward its source and, unless
// retries are disabled, arms a retransmit timer: if the retry window
// lapses with the interest still pending and live downstream waiters, the
// request is re-forwarded with exponential backoff, up to maxRetries.
// Retransmissions recover hop-by-hop — a duplicate is absorbed by the next
// hop's pending mark (or answered from its content store once data passed
// through), so a spurious retry costs one request message on one link.
// When retries are exhausted the pending mark is cleared so the next
// incoming interest forwards afresh, possibly via an alternate source
// chosen at the origin. Callers hold n.mu.
func (n *Node) forwardRequest(req *ObjectRequest, attempt int) {
	n.sendTo(req.SourceNode, req.WireSize(), req)
	if n.disableRetries {
		return
	}
	var objSize int64
	if desc, ok := n.dir.Descriptor(req.SourceNode); ok {
		objSize = desc.Size
	}
	delay := n.retryDelay(attempt, objSize)
	n.timers.After(delay, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		now := n.now()
		if !n.interest.Pending(req.Object, now) {
			return // data arrived (or the request lapsed) meanwhile
		}
		if !n.interest.HasWaiters(req.Object, now) {
			return // everyone downstream gave up; let the pending mark lapse
		}
		if attempt+1 > n.maxRetries {
			n.interest.ClearPending(req.Object)
			return
		}
		n.stats.Retransmits++
		n.m.retransmits.Inc()
		// Keep the pending mark alive through the next retry window.
		n.interest.RefreshPending(req.Object, now.Add(n.retryDelay(attempt+1, objSize)+n.retryInterval))
		n.forwardRequest(req, attempt+1)
	})
}

// sample returns the sensor's current object, reusing the last sample
// while it is fresh (sensors sample at their validity period, Section
// IV-A). Callers hold n.mu.
func (n *Node) sample(now time.Time) *object.Object {
	if n.lastSample != nil && n.lastSample.FreshAt(now) {
		return n.lastSample
	}
	n.version++
	obj := &object.Object{
		ID:       object.ID{Name: n.desc.Name, Version: n.version},
		Size:     n.desc.Size,
		Created:  now,
		Validity: n.desc.Validity,
		Labels:   append([]string(nil), n.desc.Labels...),
		Source:   n.id,
	}
	n.lastSample = obj
	n.store.Put(obj, now)
	return obj
}

// dataMsg builds the wire form of an object destined for dest.
func dataMsg(obj *object.Object, dest, queryID string, background bool) *ObjectData {
	return &ObjectData{
		Object:     obj.ID.Name.String(),
		Version:    obj.ID.Version,
		Size:       obj.Size,
		Created:    obj.Created,
		Validity:   obj.Validity,
		Labels:     append([]string(nil), obj.Labels...),
		SourceNode: obj.Source,
		Origin:     dest,
		QueryID:    queryID,
		Background: background,
	}
}

// dataPriority gives critical-namespace objects transmission priority
// (Section V-C); background pushes never get it.
func (n *Node) dataPriority(msg *ObjectData) int {
	if !msg.Background && n.isCritical(msg.Object) {
		return 1
	}
	return 0
}

// sendData routes an object toward dest via the next hop (used for
// prefetch pushes, which have no interest trail). Callers hold n.mu.
func (n *Node) sendData(obj *object.Object, dest, queryID string, background bool) {
	if dest == n.id {
		return
	}
	msg := dataMsg(obj, dest, queryID, background)
	n.sendToPri(dest, msg.WireSize(), msg, n.dataPriority(msg))
}

// sendDataTo ships an object to a specific neighbor — the reverse-path
// hop of the request being answered. Callers hold n.mu.
func (n *Node) sendDataTo(neighbor string, obj *object.Object, dest, queryID string, background bool) {
	if neighbor == n.id {
		return
	}
	msg := dataMsg(obj, dest, queryID, background)
	pri := n.dataPriority(msg)
	if pri == 0 && n.enqueueData(neighbor, msg) {
		return
	}
	if err := n.transmit(neighbor, msg.WireSize(), msg, pri); err != nil {
		n.stats.RoutingDrops++
	}
}

func dataToObject(d *ObjectData) *object.Object {
	return &object.Object{
		ID:       object.ID{Name: names.MustParse(d.Object), Version: d.Version},
		Size:     d.Size,
		Created:  d.Created,
		Validity: d.Validity,
		Labels:   append([]string(nil), d.Labels...),
		Source:   d.SourceNode,
	}
}

// handleData implements Data_Recv (Section VI-C): cache the object,
// satisfy waiting interests along their reverse paths, deliver to any
// interested local query, and keep prefetch pushes moving toward their
// destination.
func (n *Node) handleData(from string, d *ObjectData) {
	now := n.now()
	obj := dataToObject(d)
	n.store.Put(obj, now)

	// One copy per downstream neighbor suffices: that neighbor's own
	// interest table fans out further.
	servedOrigin := d.Origin == n.id
	sentTo := make(map[string]bool)
	for _, w := range n.interest.Waiters(d.Object, now, !d.Background) {
		if w.origin == d.Origin {
			servedOrigin = true
		}
		if w.from == n.id || w.origin == n.id {
			continue // local delivery handled below
		}
		if !sentTo[w.from] {
			sentTo[w.from] = true
			n.sendDataTo(w.from, obj, w.origin, w.queryID, d.Background)
		}
	}

	// Any pending local query that can use this object's evidence gets
	// it, whether or not it asked (opportunistic reuse across queries).
	n.deliverObject(obj, now)

	if !servedOrigin {
		n.sendToPri(d.Origin, d.WireSize(), d, n.dataPriority(d))
	}
}

// deliverObject annotates an arrived object against every pending local
// query that references any of its labels, then advances those queries.
// The query origin is the predicate evaluator (Section VI-C). Callers hold
// n.mu.
func (n *Node) deliverObject(obj *object.Object, now time.Time) {
	if n.annotator == nil {
		return
	}
	objName := obj.ID.Name.String()
	// Visit queries in a fixed order: iteration here schedules sends and
	// timers, and map order would make event order — and therefore which
	// messages seeded loss draws land on — vary across identical runs.
	ids := make([]string, 0, len(n.queries))
	for id := range n.queries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		q := n.queries[id]
		if q.recorded {
			continue
		}
		sentAt, waiting := q.outstanding[objName]
		if !waiting && !queryWantsAny(q, obj) {
			continue
		}
		if waiting {
			n.m.fetchLatency.ObserveDuration(now.Sub(sentAt))
		}
		delete(q.outstanding, objName)
		delete(q.attempts, objName) // answered: reset its backoff
		if q.engine.Step(now) != core.Pending {
			n.recordIfTerminal(q)
			continue
		}
		var records []trust.Label
		for _, label := range obj.Labels {
			if !queryReferences(q, label) {
				continue
			}
			value, _, err := n.annotator.Annotate(label, obj)
			if err != nil {
				continue
			}
			n.stats.Annotations++
			if n.sensorNoise > 0 {
				decided, v := n.corroborate(q, label, obj, value)
				if !decided {
					continue // need more evidence; pump seeks another source
				}
				value = v
			}
			done := now.Add(n.annotateLatency)
			rec := &trust.Label{
				Name:     label,
				Value:    value,
				Evidence: []string{obj.ID.String()},
				Computed: done,
				Validity: obj.RemainingValidity(done),
			}
			n.signer.Sign(rec)
			n.labels.Put(rec)
			records = append(records, *rec)
			// The engine accepts the evidence with the object's expiry.
			_ = q.engine.Set(label, value, obj.Expiry(), obj.Source, n.id)
		}
		if len(records) > 0 {
			// Age of information at decision application (Dong et al.'s
			// age-upon-decision): how stale the evidence already was when
			// its labels entered the decision engine.
			n.m.decisionAge.ObserveDuration(now.Sub(obj.Created))
		}
		// Label sharing: propagate computed labels back toward the data
		// source so the path caches them (Section VI-D).
		if n.scheme == SchemeLVFL && len(records) > 0 && obj.Source != n.id {
			share := &LabelShare{Records: records, Dest: obj.Source}
			n.sendTo(obj.Source, share.WireSize(), share)
		}
		n.pump(q)
	}
}

// coversAnyLabel reports whether the object evidences at least one of the
// wanted labels.
func coversAnyLabel(obj *object.Object, wanted []string) bool {
	for _, w := range wanted {
		if obj.CoversLabel(w) {
			return true
		}
	}
	return false
}

func queryReferences(q *localQuery, label string) bool {
	for _, l := range q.engine.Labels() {
		if l == label {
			return true
		}
	}
	return false
}

func queryWantsAny(q *localQuery, obj *object.Object) bool {
	for _, l := range obj.Labels {
		if queryReferences(q, l) {
			return true
		}
	}
	return false
}

// handleLabelShare caches shared label records and either consumes them
// (when this node is the destination) or forwards them on (Section VI-D).
func (n *Node) handleLabelShare(from string, s *LabelShare) {
	now := n.now()
	for i := range s.Records {
		rec := s.Records[i]
		if n.authority.Verify(&rec) == nil {
			n.labels.Put(&rec)
		}
	}
	if s.Dest != n.id {
		n.sendTo(s.Dest, s.WireSize(), s)
		return
	}
	if s.QueryID == "" {
		return // propagation toward source ends here
	}
	q, ok := n.queries[s.QueryID]
	if !ok {
		return
	}
	accepted := false
	for i := range s.Records {
		rec := s.Records[i]
		if err := n.policy.Accept(n.authority, &rec, now); err != nil {
			continue
		}
		if q.engine.Set(rec.Name, rec.Value, rec.Expiry(), "", rec.Annotator) == nil {
			accepted = true
		}
	}
	// A label answer retires the object request it replaced: clear any
	// outstanding objects that could have resolved the now-known labels.
	if accepted {
		for objName := range q.outstanding {
			delete(q.outstanding, objName)
		}
	}
	n.pump(q)
}

// kick schedules an immediate drain of the fetch queue. A pending
// pacing tick never holds it back: only prefetch pushes are paced.
// Callers hold n.mu.
func (n *Node) kick() {
	if n.draining {
		return
	}
	n.draining = true
	n.timers.After(0, n.drain)
}

// drain dispatches the whole fetch queue, then serves at most one
// background prefetch task unless a pacing tick is armed (the prefetch
// queue is only served when the fetch queue is empty, Section VI-A).
func (n *Node) drain() {
	n.mu.Lock()
	defer n.mu.Unlock()
	// A drain issues a query's whole fan-in burst synchronously; ship
	// what it coalesced as soon as the burst is done (the Nagle push).
	defer n.flushBursts()
	n.draining = false

	// Drain the fetch queue most-urgent query first (hierarchical
	// priority bands, ref [1]); the sort is stable so a query's own
	// requests keep their plan order.
	sort.SliceStable(n.fetchQ, func(a, b int) bool {
		return n.fetchQ[a].urgency < n.fetchQ[b].urgency
	})
	for len(n.fetchQ) > 0 {
		qr := n.fetchQ[0]
		n.fetchQ = n.fetchQ[1:]
		n.dispatchRequest(qr.req)
	}

	if !n.pacing {
		n.servePrefetch()
	}
}

// prefetchTick is the pacing timer: it serves the next prefetch task, if
// any, PrefetchDelay after the previous one. If fetches are queued it
// leaves the task to the drain already scheduled for them.
func (n *Node) prefetchTick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.flushBursts()
	n.pacing = false
	if len(n.fetchQ) > 0 {
		return
	}
	n.servePrefetch()
}

// servePrefetch pushes the head of the prefetch queue toward its origin
// and arms the pacing tick, so pushes go out at most one per
// PrefetchDelay: a task that arrives before the tick fires waits for it.
// Callers hold n.mu.
func (n *Node) servePrefetch() {
	if len(n.prefetchQ) == 0 {
		return
	}
	task := n.prefetchQ[0]
	n.prefetchQ = n.prefetchQ[1:]
	if n.desc != nil && task.origin != n.id {
		now := n.now()
		obj := n.sample(now)
		// Don't re-push a version this origin already received.
		key := task.origin + "|" + obj.ID.Name.String()
		if n.pushedVersions[key] != obj.ID.Version {
			n.pushedVersions[key] = obj.ID.Version
			n.stats.PrefetchPushes++
			n.sendData(obj, task.origin, task.queryID, true)
		}
	}
	n.pacing = true
	n.timers.After(n.prefetchDelay, n.prefetchTick)
}

// dispatchRequest serves a locally originated request: local cache and
// own-sensor answers short-circuit the network entirely; otherwise the
// request is routed toward the source. Callers hold n.mu.
func (n *Node) dispatchRequest(req *ObjectRequest) {
	now := n.now()

	// Local label-cache answer (lvfl).
	if n.scheme == SchemeLVFL {
		if q, ok := n.queries[req.QueryID]; ok {
			satisfied := true
			for _, l := range req.Labels {
				rec, found := n.labels.Get(l, trust.TrustAll(), now)
				if !found || n.policy.Accept(n.authority, rec, now) != nil {
					satisfied = false
					break
				}
				_ = q.engine.Set(rec.Name, rec.Value, rec.Expiry(), "", rec.Annotator)
			}
			if satisfied {
				n.stats.LabelAnswers++
				delete(q.outstanding, req.Object)
				n.pump(q)
				return
			}
		}
	}

	// Local content store; deliverObject clears the outstanding mark and
	// pumps the query.
	if name, err := names.Parse(req.Object); err == nil {
		if obj, ok := n.store.Get(name, now); ok {
			n.stats.CacheAnswers++
			n.deliverObject(obj, now)
			return
		}
	}

	// Own sensor.
	if req.SourceNode == n.id && n.desc != nil {
		obj := n.sample(now)
		n.deliverObject(obj, now)
		return
	}

	n.sendTo(req.SourceNode, req.WireSize(), req)
}
