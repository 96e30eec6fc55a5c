package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"athena/internal/simclock"
	"athena/internal/transport"
)

// tracedRun is the --trace 1 run. An untraced measurement comes first;
// then the run is measured again, for half the budget, with a CPU
// profile and, on TCP, spans around every call into a layer. The traced
// half gives the per-layer metrics, and its CPU cost per decision
// against the untraced one is the tracing overhead: over the same
// scenarios in the sims, over a half-budget run on TCP.
func tracedRun(o runOpts, measure func(runOpts, *spanLog) (*report, error)) (*report, error) {
	o.budget /= 2
	base, err := measure(o, nil)
	if err != nil {
		return nil, err
	}
	spans := newSpanLog()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	rep, err := measure(o, spans)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for mod, pct := range moduleShares(samples) {
		if mod == "runtime" {
			rep.layer["runtime.gc_pct"] = pct
		} else {
			rep.layer[mod+".self_pct"] = pct
		}
	}
	n := len(base.scenarioCost)
	rep.layer["bench.trace_overhead_pct"] = 100 * (rep.costOfFirst(n)/base.costOfFirst(n) - 1)
	spans.summarize(rep.layer, os.Stderr)
	rep.attempted += base.attempted
	rep.failed += base.failed
	rep.violations = append(base.violations, rep.violations...)
	return rep, nil
}

// Span kinds: the layer boundary a span was recorded at.
const (
	spanQueryInit = iota // harness → athena: Node.QueryInit
	spanHandle           // transport → athena: delivered-message handler
	spanSend             // athena → transport: Transport.Send
	spanEncode           // transport → wire: Codec.Append
	spanDecode           // transport → wire: Codec.Decode
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"athena.query_init", "athena.handle", "transport.send", "wire.encode", "wire.decode"}

// span is one timed call across a layer boundary. class is the payload's
// message type; bytes is the frame length for codec spans.
type span struct {
	kind  uint8
	class uint16
	dur   time.Duration
	bytes int32
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	classes map[reflect.Type]uint16
	names   []string
}

func newSpanLog() *spanLog {
	return &spanLog{spans: make([]span, 0, 1<<16), classes: map[reflect.Type]uint16{}}
}

// add records a span that started at start and ends now.
func (l *spanLog) add(kind uint8, payload any, start time.Time, n int) {
	if l == nil {
		return
	}
	end := wallNow()
	t := reflect.TypeOf(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.classes[t]
	if !ok {
		c = uint16(len(l.names))
		l.classes[t] = c
		l.names = append(l.names, fmt.Sprint(t))
	}
	l.spans = append(l.spans, span{kind: kind, class: c, dur: end.Sub(start), bytes: int32(n)})
}

// reset drops the spans recorded so far, so the log covers only what
// follows (the timed region).
func (l *spanLog) reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = l.spans[:0]
}

// summarize writes the per-kind, per-class span table to w and puts each
// kind's mean duration (µs) and the codec's counts into the layer set.
// Durations are inclusive: a handler span contains the sends it makes,
// and a send span contains its encode.
func (l *spanLog) summarize(layer map[string]float64, w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	type agg struct {
		n     int
		total time.Duration
		bytes int64
	}
	byKind := make([]agg, numSpanKinds)
	byClass := map[[2]int]*agg{}
	for _, s := range l.spans {
		k := &byKind[s.kind]
		k.n++
		k.total += s.dur
		k.bytes += int64(s.bytes)
		key := [2]int{int(s.kind), int(s.class)}
		if byClass[key] == nil {
			byClass[key] = &agg{}
		}
		c := byClass[key]
		c.n++
		c.total += s.dur
		c.bytes += int64(s.bytes)
	}
	meanUS := func(a agg) float64 { return ratio(float64(a.total)/1e3, float64(a.n)) }
	layer["athena.query_init_us"] = meanUS(byKind[spanQueryInit])
	layer["athena.handle_us"] = meanUS(byKind[spanHandle])
	layer["athena.handled_msgs"] = float64(byKind[spanHandle].n)
	layer["transport.send_us"] = meanUS(byKind[spanSend])
	layer["wire.encode_us"] = meanUS(byKind[spanEncode])
	layer["wire.decode_us"] = meanUS(byKind[spanDecode])
	layer["wire.frames"] = float64(byKind[spanEncode].n)
	layer["wire.bytes_per_frame"] = ratio(float64(byKind[spanEncode].bytes), float64(byKind[spanEncode].n))

	if len(l.spans) == 0 {
		return
	}
	keys := make([][2]int, 0, len(byClass))
	for k := range byClass {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return l.names[keys[i][1]] < l.names[keys[j][1]]
	})
	fmt.Fprintf(w, "%-20s %-32s %9s %10s %12s\n", "span", "class", "count", "mean_us", "bytes")
	for _, k := range keys {
		a := *byClass[k]
		fmt.Fprintf(w, "%-20s %-32s %9d %10.2f %12d\n", spanNames[k[0]], l.names[k[1]], a.n, meanUS(a), a.bytes)
	}
}

// tcpLike is the transport surface the TCP fleet's nodes use: the base
// Transport plus the optional interfaces TCPTransport implements.
type tcpLike interface {
	transport.Transport
	transport.PeerAdder
	transport.Addresser
	transport.PeerLister
}

// tracedTransport times Send and the delivered-message handler and
// forwards everything else, so the node takes the same code paths as
// over the bare transport.
type tracedTransport struct {
	inner tcpLike
	log   *spanLog
}

// tracedPriorityTransport adds SendPriority for inner transports that
// have it; wrapTransport picks the variant whose method set matches.
type tracedPriorityTransport struct {
	*tracedTransport
	prio transport.PrioritySender
}

func wrapTransport(inner tcpLike, log *spanLog) transport.Transport {
	t := &tracedTransport{inner: inner, log: log}
	if ps, ok := inner.(transport.PrioritySender); ok {
		return tracedPriorityTransport{t, ps}
	}
	return t
}

func (t *tracedTransport) Self() string                   { return t.inner.Self() }
func (t *tracedTransport) Neighbors() []string            { return t.inner.Neighbors() }
func (t *tracedTransport) Clock() simclock.Clock          { return t.inner.Clock() }
func (t *tracedTransport) AddPeer(id, addr string)        { t.inner.AddPeer(id, addr) }
func (t *tracedTransport) Addr() string                   { return t.inner.Addr() }
func (t *tracedTransport) Peers() map[string]string       { return t.inner.Peers() }
func (t *tracedTransport) SetHandler(h transport.Handler) { t.inner.SetHandler(t.handler(h)) }
func (t *tracedTransport) handler(h transport.Handler) transport.Handler {
	return func(from string, size int64, payload any) {
		start := wallNow()
		h(from, size, payload)
		t.log.add(spanHandle, payload, start, 0)
	}
}

func (t *tracedTransport) Send(to string, size int64, payload any) error {
	start := wallNow()
	err := t.inner.Send(to, size, payload)
	t.log.add(spanSend, payload, start, 0)
	return err
}

func (t tracedPriorityTransport) SendPriority(to string, size int64, priority int, payload any) error {
	start := wallNow()
	err := t.prio.SendPriority(to, size, priority, payload)
	t.log.add(spanSend, payload, start, 0)
	return err
}

// tracedCodec times the wire codec per message class.
type tracedCodec struct {
	inner transport.Codec
	log   *spanLog
}

func (c tracedCodec) Append(dst []byte, from string, size int64, payload any) ([]byte, error) {
	start := wallNow()
	out, err := c.inner.Append(dst, from, size, payload)
	c.log.add(spanEncode, payload, start, len(out)-len(dst))
	return out, err
}

func (c tracedCodec) Decode(body []byte) (string, any, error) {
	start := wallNow()
	from, payload, err := c.inner.Decode(body)
	c.log.add(spanDecode, payload, start, len(body))
	return from, payload, err
}
