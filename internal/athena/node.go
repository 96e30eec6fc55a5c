package athena

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"athena/internal/annotate"
	"athena/internal/boolexpr"
	"athena/internal/cache"
	"athena/internal/core"
	"athena/internal/gossip"
	"athena/internal/metrics"
	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/transport"
	"athena/internal/trust"
)

// Router supplies next hops toward non-neighbor nodes. The simulator's
// network implements it; a deployment would use static tables or a routing
// protocol.
type Router interface {
	// NextHop returns the neighbor of from on a path toward to.
	NextHop(from, to string) (string, error)
}

// Timers schedules callbacks; the simulator's scheduler and wall-clock
// timers both satisfy it.
type Timers interface {
	// After runs fn after d (d <= 0 means as soon as possible).
	After(d time.Duration, fn func())
	// AfterArg runs fn(arg) after d. Hot paths pass a stored method value
	// and an already-allocated argument so no closure is built per timer;
	// the simulator's scheduler additionally recycles the event, since no
	// handle escapes.
	AfterArg(d time.Duration, fn func(arg any), arg any)
}

// Stats counts a node's activity.
type Stats struct {
	// QueriesIssued counts locally originated queries.
	QueriesIssued int
	// ResolvedTrue / ResolvedFalse / Expired count terminal statuses of
	// local queries.
	ResolvedTrue, ResolvedFalse, Expired int
	// RequestsSent counts object requests dispatched (first sends and
	// refetches).
	RequestsSent int
	// Refetches counts requests re-issued after evidence expired.
	Refetches int
	// Retransmits counts upstream requests re-forwarded by the interest
	// layer after a retry window lapsed without data.
	Retransmits int
	// RequestTimeouts counts origin-side request timeouts (the backoff
	// timer fired with the request still unanswered).
	RequestTimeouts int
	// DupSuppressed counts duplicate requests dropped because the object
	// was plausibly still in flight to the same neighbor.
	DupSuppressed int
	// CacheAnswers counts requests served from the local content store.
	CacheAnswers int
	// ApproxAnswers counts requests served by approximate name
	// substitution (a subset of CacheAnswers).
	ApproxAnswers int
	// LabelAnswers counts requests answered with cached label records.
	LabelAnswers int
	// PrefetchPushes counts background object pushes.
	PrefetchPushes int
	// Annotations counts labels computed locally.
	Annotations int
	// RoutingDrops counts messages dropped for lack of a route.
	RoutingDrops int
	// HeartbeatsSent counts membership heartbeats originated here.
	HeartbeatsSent int
	// Evictions counts sources this node's failure detector evicted.
	Evictions int
	// SyncExchanges counts anti-entropy exchanges this node initiated.
	SyncExchanges int
	// PingsSent counts SWIM probes (direct, indirect requests, and relays)
	// originated here.
	PingsSent int
	// Suspicions counts probe targets that entered the suspect state here.
	Suspicions int
	// Refutations counts false-positive evictions of this node it refuted
	// by re-advertising with a bumped sequence number.
	Refutations int
	// ControlMsgs / ControlBytes count membership control-plane traffic
	// (heartbeats, adverts, leaves, syncs, pings/acks) sent or forwarded by
	// this node, in both flood and gossip mode.
	ControlMsgs  int
	ControlBytes int64
	// PlanCacheHits counts QueryInits served by the memoized query plan.
	PlanCacheHits int
	// ShardLookups counts routed label lookups this node issued (sharded
	// directory); ShardLookupHits counts query-path resolutions served from
	// the local lookup cache instead.
	ShardLookups    int
	ShardLookupHits int
	// ShardServed counts routed lookups this node answered as a shard
	// owner.
	ShardServed int
	// ShardReroutes counts lookup re-sends to an alternate replica (retry
	// timeouts and owner evictions).
	ShardReroutes int
	// DataFrames counts data-plane frames put on the wire by this node —
	// per-hop ObjectRequest/ObjectData sends plus batch frames — the
	// denominator the batching layer can actually shrink (control-plane
	// floods are untouched by it).
	DataFrames int
	// BatchesSent counts coalesced frames shipped by the data-plane
	// batching layer; BatchedMsgs counts the members they carried.
	BatchesSent int
	BatchedMsgs int
	// BatchBytesSaved is the wire bytes batching saved versus shipping
	// every member in its own frame.
	BatchBytesSaved int64
}

// QueryResult records the outcome of one locally originated query.
type QueryResult struct {
	// QueryID identifies the query.
	QueryID string
	// Status is the terminal status.
	Status core.Status
	// Issued and Finished bound the query's lifetime.
	Issued, Finished time.Time
	// Deadline is the absolute deadline it had.
	Deadline time.Time
}

// Config assembles a node.
type Config struct {
	// ID is the node's network identifier.
	ID string
	// Transport delivers messages.
	Transport transport.Transport
	// Router supplies next hops.
	Router Router
	// Timers schedules deadline and expiry events.
	Timers Timers
	// Scheme is the retrieval strategy.
	Scheme Scheme
	// Directory is the semantic lookup service.
	Directory *Directory
	// Meta is per-label planning metadata.
	Meta boolexpr.MetaTable
	// World is the ground truth used for sampling and annotation.
	World annotate.GroundTruth
	// Authority verifies label signatures.
	Authority *trust.Authority
	// Signer signs labels this node computes.
	Signer trust.Signer
	// Policy decides whose labels this node accepts.
	Policy *trust.Policy
	// Descriptor advertises this node's sensor stream (nil if none).
	Descriptor *object.Descriptor
	// CacheBytes bounds the content store (negative = unbounded).
	CacheBytes int64
	// AnnotateLatency is the local annotation delay.
	AnnotateLatency time.Duration
	// AnnounceTTL bounds query-expression flooding (default 4).
	AnnounceTTL int
	// DisablePrefetch turns off background prefetching (ablation A2).
	DisablePrefetch bool
	// PrefetchDelay paces background pushes (default 250ms).
	PrefetchDelay time.Duration
	// InterestTTL bounds interest-table entries (default 30s).
	InterestTTL time.Duration
	// BatchWindow caps concurrent in-flight object requests per query for
	// the batch schemes cmp/slt/lcf (default 8). The decision-driven
	// schemes are sequential (window 1) by design.
	BatchWindow int
	// RequestTimeout clears a stuck in-flight request so the query can
	// retry (default 30s). With retries enabled it also caps the
	// per-attempt backoff delay.
	RequestTimeout time.Duration
	// RetryInterval is the base delay before a lapsed request is retried
	// — origin-side re-requests and interest-layer retransmissions both
	// back off exponentially from it (default 6s).
	RetryInterval time.Duration
	// RetryBackoff is the exponential backoff multiplier applied to
	// RetryInterval on successive attempts (default 2).
	RetryBackoff float64
	// MaxRetries bounds retransmissions per forwarded request and
	// origin-side timeouts before an alternate source is tried
	// (default 3).
	MaxRetries int
	// RetryBandwidth is the assumed worst-case end-to-end throughput
	// used to stretch retry delays for large objects: every attempt
	// waits an extra Size/RetryBandwidth on top of the backoff, so a
	// slow-but-healthy multi-hop transfer is not mistaken for a loss
	// (default 50 kB/s — a fraction of the paper's 1 Mbps links, to
	// absorb serialization over several hops plus queueing). The same
	// window arms the responder-side duplicate suppression.
	RetryBandwidth float64
	// DisableRetries turns the recovery layer off (ablation A6 baseline):
	// requests get only the single fixed RequestTimeout safety net and
	// forwarded interests are never retransmitted.
	DisableRetries bool
	// SequentialWindow caps concurrent transfers for the decision-driven
	// schemes lvf/lvfl (default 4): near-sequential, with modest
	// pipelining inside the active course of action.
	SequentialWindow int
	// CoalesceWindow enables data-plane batching: ObjectRequests and
	// ObjectData headed for the same neighbor wait up to this long to be
	// merged into RequestBatch/DataBatch frames (see coalesce.go). Zero
	// (the default) keeps the one-frame-per-message behavior, byte for
	// byte. Queries close to their deadline flush immediately and
	// critical-namespace traffic bypasses the queue.
	CoalesceWindow time.Duration
	// CoalesceBytes is the per-neighbor byte budget that forces a flush
	// before the window expires (default 256 KiB when batching is on).
	CoalesceBytes int64
	// ApproxMinSimilarity enables approximate object substitution
	// (Section V-A): a cached object whose name similarity to the
	// requested one is at least this threshold may answer the request,
	// provided it covers at least one requested label. Zero disables.
	ApproxMinSimilarity float64
	// CriticalPrefix marks a critical part of the name space
	// (Section V-C): objects under this prefix get transmission priority
	// on priority-capable transports and are exempt from approximate
	// substitution. Zero value disables.
	CriticalPrefix names.Name
	// SensorNoise is the probability a single annotation misreads its
	// evidence (Section IV-B). When positive, labels are corroborated
	// across multiple evidence objects until ConfidenceTarget is reached.
	SensorNoise float64
	// ConfidenceTarget is the required posterior confidence for noisy
	// labels (default 0.95 when SensorNoise > 0).
	ConfidenceTarget float64
	// HeartbeatInterval enables the live-membership layer: the node floods
	// a heartbeat every interval, evicts sources that miss HeartbeatMiss
	// beats, and reconciles directory replicas by anti-entropy. Zero (the
	// default) keeps the directory static — the pre-membership behavior.
	HeartbeatInterval time.Duration
	// HeartbeatMiss is the failure detector's tolerance in missed
	// heartbeat intervals before a silent source is evicted (default 3).
	HeartbeatMiss int
	// GossipFanout switches the membership layer from flooded heartbeats
	// to SWIM-style peer-sampled gossip: each heartbeat interval the node
	// pings this many sampled members directly instead of flooding,
	// suspicion is confirmed through GossipIndirect intermediaries before
	// eviction, and membership updates ride as bounded piggyback buffers
	// on ping/ack instead of being flooded. Zero (the default) keeps the
	// flood protocol. Requires HeartbeatInterval > 0.
	GossipFanout int
	// GossipIndirect is the number of intermediaries asked to ping-req a
	// silent probe target on the prober's behalf (default 2).
	GossipIndirect int
	// SuspectTimeout is how long an unacknowledged probe target stays
	// suspect before eviction (default 3×HeartbeatMiss heartbeat
	// intervals). Unlike the flood detector — whose redundant delivery
	// paths refresh liveness from any direction — a sampled probe rides
	// one route, so the window must also cover worst-case head-of-line
	// blocking behind bulk object transfers on that route. Suspicion is
	// cleared by any contact, suspects are re-probed every period, and
	// the window self-dilates under local congestion (Lifeguard-style
	// local health multiplier), so shorter values are safe on idle or
	// fast networks.
	SuspectTimeout time.Duration
	// GossipRetransmit is λ in the per-update piggyback retransmit budget
	// λ·⌈log₂(n+1)⌉ (default 3).
	GossipRetransmit int
	// GossipMaxPiggyback caps membership updates per ping/ack (default 8).
	GossipMaxPiggyback int
	// GossipSeed seeds the deterministic peer-sampling RNG; the node's own
	// id is mixed in, so one scenario seed serves a whole fleet.
	GossipSeed int64
	// Shards enables the sharded directory: advertisements are partitioned
	// by name prefix into this many shards, each replicated on
	// ShardReplicas nodes chosen by rendezvous hashing over the live
	// membership view. Non-owned payloads are thinned out of the local
	// replica and label lookups outside the owned shards are routed to a
	// shard owner. Zero (the default) keeps the full-replica directory —
	// the pre-sharding behavior, byte for byte. Requires gossip membership
	// (GossipFanout > 0).
	Shards int
	// ShardReplicas is the per-shard replication factor (default 3).
	ShardReplicas int
	// ShardCacheSize bounds the LRU of remote lookup results a sharded
	// node keeps (default 256 labels).
	ShardCacheSize int
	// Metrics, when non-nil, mirrors the node's activity into the registry:
	// cache and interest-table counters, retry/failover counts, membership
	// events, directory version, and fetch-latency / decision-age
	// histograms. Nil keeps instrumentation disabled (every instrument is a
	// nil no-op; see internal/metrics).
	Metrics *metrics.Registry
}

type localQuery struct {
	engine      *core.Engine
	issued      time.Time
	selected    []string             // selected source ids (slt/lcf/lvf/lvfl)
	outstanding map[string]time.Time // object name -> request send time
	requested   map[string]bool      // object names requested at least once
	attempts    map[string]int       // object name -> origin-side timeout count
	suspect     map[string]bool      // sources that exhausted their retries
	batch       bool
	nextExpiry  time.Time
	nextRetry   time.Time
	recorded    bool
	corr        map[string]*corrState // label -> corroboration (noisy mode)
}

// corrState accumulates noisy annotation votes for one label of one query
// (Section IV-B).
type corrState struct {
	c *annotate.Corroborator
	// votedVersion records which exact object versions already voted.
	votedVersion map[string]bool
	// nameExpiry maps a voted object name to the expiry of the version
	// that voted: a new vote from that source is only possible after it.
	nameExpiry map[string]time.Time
}

type queuedRequest struct {
	req *ObjectRequest
	// urgency is the issuing query's hierarchical priority key (ref [1]):
	// the minimum of its evidence validity expirations and its decision
	// deadline, precomputed as UnixNano at enqueue so the drain sort
	// compares plain integers. Smaller = more urgent; the fetch queue
	// drains in this order (Section VI-A's "optimal object retrieval order
	// according to the current set of queries").
	urgency int64
}

type prefetchTask struct {
	origin  string
	queryID string
}

// nodeMetrics holds the node's pre-resolved instruments so per-event code
// never touches a registry map or lock. Every field is nil (a no-op) when
// the node was built without a registry.
type nodeMetrics struct {
	retryTimeouts    *metrics.Counter
	failovers        *metrics.Counter
	retransmits      *metrics.Counter
	heartbeats       *metrics.Counter
	evictions        *metrics.Counter
	syncRounds       *metrics.Counter
	pings            *metrics.Counter
	suspicions       *metrics.Counter
	refutes          *metrics.Counter
	ctlMsgs          *metrics.Counter
	ctlBytes         *metrics.Counter
	fetchLatency     *metrics.Histogram
	resolveLatency   *metrics.Histogram
	decisionAge      *metrics.Histogram
	convergence      *metrics.Histogram
	batchSize        *metrics.Histogram
	batchFramesSaved *metrics.Counter
	batchBytesSaved  *metrics.Counter
}

// newNodeMetrics resolves the node's instruments once. A nil registry
// yields all-nil instruments.
func newNodeMetrics(r *metrics.Registry) nodeMetrics {
	return nodeMetrics{
		retryTimeouts:    r.Counter("retry.timeouts"),
		failovers:        r.Counter("retry.failovers"),
		retransmits:      r.Counter("retry.retransmits"),
		heartbeats:       r.Counter("membership.heartbeats_sent"),
		evictions:        r.Counter("membership.evictions"),
		syncRounds:       r.Counter("membership.sync_rounds"),
		pings:            r.Counter("membership.pings_sent"),
		suspicions:       r.Counter("membership.suspicions"),
		refutes:          r.Counter("membership.refutations"),
		ctlMsgs:          r.Counter("membership.ctl_msgs"),
		ctlBytes:         r.Counter("membership.ctl_bytes"),
		fetchLatency:     r.Histogram("query.fetch_latency_s", metrics.LatencyBuckets()),
		resolveLatency:   r.Histogram("query.resolve_latency_s", metrics.LatencyBuckets()),
		decisionAge:      r.Histogram("query.decision_age_s", metrics.LatencyBuckets()),
		convergence:      r.Histogram("membership.convergence_s", metrics.LatencyBuckets()),
		batchSize:        r.Histogram("batch.size", metrics.LinearBuckets(1, 1, 16)),
		batchFramesSaved: r.Counter("batch.frames_saved"),
		batchBytesSaved:  r.Counter("batch.bytes_saved"),
	}
}

// cacheMetrics resolves the counter set mirroring one cache's Stats under
// the given name prefix ("cache" for the content store, "labels" for the
// label cache).
func cacheMetrics(r *metrics.Registry, prefix string) cache.Metrics {
	return cache.Metrics{
		Hits:       r.Counter(prefix + ".hits"),
		ApproxHits: r.Counter(prefix + ".approx_hits"),
		Misses:     r.Counter(prefix + ".misses"),
		StaleDrops: r.Counter(prefix + ".stale_drops"),
		Evictions:  r.Counter(prefix + ".evictions"),
	}
}

// Node is one Athena node.
type Node struct {
	mu sync.Mutex

	id        string
	tr        transport.Transport
	router    Router
	timers    Timers
	scheme    Scheme
	dir       *Directory
	meta      boolexpr.MetaTable
	world     annotate.GroundTruth
	annotator annotate.Annotator
	authority *trust.Authority
	signer    trust.Signer
	policy    *trust.Policy
	desc      *object.Descriptor

	store    *cache.Store
	labels   *cache.LabelCache
	interest *InterestTable

	queries        map[string]*localQuery
	seenAnnounce   map[string]bool
	pushed         map[string]bool      // queryID -> already prefetch-pushed
	pushedVersions map[string]uint64    // origin|object -> last pushed version
	sentRecently   map[string]time.Time // object|neighbor -> in-flight window end

	fetchQ    []queuedRequest
	prefetchQ []prefetchTask
	draining  bool // an immediate drain is scheduled
	pacing    bool // a prefetch pacing tick is armed

	lastSample *object.Object
	version    uint64
	querySeq   int

	announceTTL      int
	disablePrefetch  bool
	prefetchDelay    time.Duration
	annotateLatency  time.Duration
	batchWindow      int
	sequentialWindow int
	requestTimeout   time.Duration
	retryInterval    time.Duration
	retryBackoff     float64
	maxRetries       int
	retryBandwidth   float64
	disableRetries   bool
	approxMinSim     float64
	criticalPrefix   names.Name
	sensorNoise      float64
	confTarget       float64

	// Data-plane batching (inert unless coalesceWindow > 0; coalesce.go).
	coalesceWindow time.Duration
	coalesceBytes  int64
	sendQ          map[string]*sendQueue
	burstQs        []*sendQueue

	// Live membership (zero-valued and inert unless memberOn).
	memberOn   bool
	hbInterval time.Duration
	hbMiss     int
	adSeq      uint64               // this node's advertisement sequence number
	beatSeq    uint64               // this node's heartbeat counter
	lastHeard  map[string]time.Time // source -> last heartbeat (or advert) time
	seenBeat   map[string]uint64    // node -> highest heartbeat re-flooded
	lastSync   map[string]time.Time // peer -> last anti-entropy request time

	// SWIM gossip mode (zero-valued and inert unless gossipOn).
	gossipOn    bool
	fanout      int           // peers probed per protocol period
	indirectK   int           // ping-req intermediaries per suspicion
	suspectTO   time.Duration // probe → eviction window
	lambda      int           // piggyback retransmit multiplier
	piggyMax    int           // piggyback updates per ping/ack
	sampler     *gossip.Sampler
	piggy       *gossip.Queue
	probeSeq    uint64                 // this node's probe counter
	probes      map[uint64]*probeState // outstanding probes by seq
	probeFree   *probeState            // recycled probe states (see freeProbe)
	pickExcl    map[string]bool        // scratch exclude set for sampler.Pick
	peerScratch []string               // refreshSampler's peer-list scratch
	suspects    map[string]time.Time   // suspect -> first-suspected instant
	samplerVer  uint64                 // directory version at last ring refresh
	left        bool                   // this node issued a graceful Leave
	lhm         int                    // Lifeguard-style local health multiplier

	// Sharded directory (zero-valued and inert unless shardOn; see
	// sharding.go and shardrouter.go).
	shardOn     bool
	shardRouter *ShardRouter
	shardVer    uint64 // directory version at last shard refresh

	// Method values bound once in New: the membership loops re-arm
	// themselves every period through Timers.AfterArg, and binding these
	// per call would allocate a closure per tick per node.
	gossipTickFn    func(any)
	heartbeatTickFn func(any)
	probeTimeoutFn  func(any)

	// Query-plan memoization: planFor's output keyed by expression text,
	// valid while the directory version is unchanged (directory changes are
	// the only event that re-prices planning metadata at runtime).
	planCache map[string]cachedPlan

	reg     *metrics.Registry
	m       nodeMetrics
	stats   Stats
	results []QueryResult
	onDone  func(QueryResult)
}

// New assembles a node and installs its transport handler.
func New(cfg Config) (*Node, error) {
	if cfg.ID == "" || cfg.Transport == nil || cfg.Router == nil || cfg.Timers == nil {
		return nil, errors.New("athena: ID, Transport, Router and Timers are required")
	}
	if cfg.Directory == nil {
		return nil, errors.New("athena: Directory is required")
	}
	if cfg.Authority == nil || cfg.Policy == nil {
		return nil, errors.New("athena: Authority and Policy are required")
	}
	if cfg.AnnounceTTL <= 0 {
		cfg.AnnounceTTL = 4
	}
	if cfg.PrefetchDelay <= 0 {
		cfg.PrefetchDelay = 250 * time.Millisecond
	}
	if cfg.InterestTTL <= 0 {
		cfg.InterestTTL = 30 * time.Second
	}
	if cfg.BatchWindow <= 0 {
		cfg.BatchWindow = 8
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.SequentialWindow <= 0 {
		cfg.SequentialWindow = 4
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 6 * time.Second
	}
	if cfg.RetryBackoff <= 1 {
		cfg.RetryBackoff = 2
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	if cfg.RetryBandwidth <= 0 {
		cfg.RetryBandwidth = 50_000
	}
	if cfg.SensorNoise > 0 && cfg.ConfidenceTarget <= 0 {
		cfg.ConfidenceTarget = 0.95
	}
	if cfg.CoalesceWindow > 0 && cfg.CoalesceBytes <= 0 {
		cfg.CoalesceBytes = 256 << 10
	}
	if cfg.HeartbeatInterval > 0 && cfg.HeartbeatMiss <= 0 {
		cfg.HeartbeatMiss = 3
	}
	if cfg.GossipFanout > 0 {
		if cfg.HeartbeatInterval <= 0 {
			return nil, errors.New("athena: GossipFanout requires HeartbeatInterval")
		}
		if cfg.GossipIndirect <= 0 {
			cfg.GossipIndirect = 2
		}
		if cfg.SuspectTimeout <= 0 {
			cfg.SuspectTimeout = 3 * time.Duration(cfg.HeartbeatMiss) * cfg.HeartbeatInterval
		}
		if cfg.GossipRetransmit <= 0 {
			cfg.GossipRetransmit = 3
		}
		if cfg.GossipMaxPiggyback <= 0 {
			cfg.GossipMaxPiggyback = 8
		}
	}
	if cfg.Shards > 0 {
		if cfg.GossipFanout <= 0 {
			return nil, errors.New("athena: Shards requires gossip membership (set GossipFanout)")
		}
		if cfg.ShardReplicas <= 0 {
			cfg.ShardReplicas = 3
		}
		if cfg.ShardCacheSize <= 0 {
			cfg.ShardCacheSize = 256
		}
	}
	n := &Node{
		id:               cfg.ID,
		tr:               cfg.Transport,
		router:           cfg.Router,
		timers:           cfg.Timers,
		scheme:           cfg.Scheme,
		dir:              cfg.Directory,
		meta:             cfg.Meta,
		world:            cfg.World,
		authority:        cfg.Authority,
		signer:           cfg.Signer,
		policy:           cfg.Policy,
		desc:             cfg.Descriptor,
		store:            cache.NewStore(cfg.CacheBytes),
		labels:           cache.NewLabelCache(),
		interest:         NewInterestTable(cfg.InterestTTL),
		queries:          make(map[string]*localQuery),
		seenAnnounce:     make(map[string]bool),
		pushed:           make(map[string]bool),
		pushedVersions:   make(map[string]uint64),
		sentRecently:     make(map[string]time.Time),
		announceTTL:      cfg.AnnounceTTL,
		disablePrefetch:  cfg.DisablePrefetch,
		prefetchDelay:    cfg.PrefetchDelay,
		annotateLatency:  cfg.AnnotateLatency,
		batchWindow:      cfg.BatchWindow,
		sequentialWindow: cfg.SequentialWindow,
		requestTimeout:   cfg.RequestTimeout,
		retryInterval:    cfg.RetryInterval,
		retryBackoff:     cfg.RetryBackoff,
		maxRetries:       cfg.MaxRetries,
		retryBandwidth:   cfg.RetryBandwidth,
		disableRetries:   cfg.DisableRetries,
		approxMinSim:     cfg.ApproxMinSimilarity,
		criticalPrefix:   cfg.CriticalPrefix,
		sensorNoise:      cfg.SensorNoise,
		confTarget:       cfg.ConfidenceTarget,
		coalesceWindow:   cfg.CoalesceWindow,
		coalesceBytes:    cfg.CoalesceBytes,
	}
	if cfg.CoalesceWindow > 0 {
		n.sendQ = make(map[string]*sendQueue)
	}
	n.reg = cfg.Metrics
	n.m = newNodeMetrics(cfg.Metrics)
	if cfg.Metrics != nil {
		n.store.Instrument(cacheMetrics(cfg.Metrics, "cache"))
		n.labels.Instrument(cacheMetrics(cfg.Metrics, "labels"))
		n.interest.Instrument(cfg.Metrics.Counter("interest.inserts"), cfg.Metrics.Counter("interest.expiries"))
		n.dir.Instrument(cfg.Metrics.Gauge("directory.version"))
	}
	if cfg.World != nil {
		n.annotator = annotate.NewMachine(cfg.ID, cfg.World, cfg.AnnotateLatency, 0, nil)
	}
	if cfg.HeartbeatInterval > 0 {
		n.memberOn = true
		n.hbInterval = cfg.HeartbeatInterval
		n.hbMiss = cfg.HeartbeatMiss
		n.lastHeard = make(map[string]time.Time)
		n.seenBeat = make(map[string]uint64)
		n.lastSync = make(map[string]time.Time)
		// Make sure our own stream is advertised under a sequence number we
		// own, so Leave/Rejoin can order later updates.
		if n.desc != nil {
			if seq, ok := n.dir.Seq(n.id); ok && n.dir.Has(n.id) {
				n.adSeq = seq
			} else {
				n.adSeq = 1
				n.dir.Advertise(*n.desc, n.adSeq)
			}
		}
		if cfg.GossipFanout > 0 {
			n.gossipOn = true
			n.fanout = cfg.GossipFanout
			n.indirectK = cfg.GossipIndirect
			n.suspectTO = cfg.SuspectTimeout
			n.lambda = cfg.GossipRetransmit
			n.piggyMax = cfg.GossipMaxPiggyback
			h := fnv.New64a()
			h.Write([]byte(cfg.ID))
			n.sampler = gossip.NewSampler(cfg.GossipSeed ^ int64(h.Sum64()))
			n.piggy = gossip.NewQueue()
			n.probes = make(map[uint64]*probeState)
			n.suspects = make(map[string]time.Time)
			n.samplerVer = ^uint64(0)
		}
		if cfg.Shards > 0 {
			n.shardOn = true
			n.shardRouter = NewShardRouter(cfg.ID, cfg.Shards, cfg.ShardReplicas, cfg.ShardCacheSize)
			n.shardVer = ^uint64(0)
			// Until the first refresh the router's nil snapshot keeps every
			// payload; the first gossip tick thins the replica down to the
			// shards this node owns.
			n.dir.SetRetention(n.shardRouter.Keep)
		}
		n.gossipTickFn = n.gossipTickArg
		n.heartbeatTickFn = n.heartbeatTickArg
		n.probeTimeoutFn = n.probeTimeout
		n.startMembership()
	}
	cfg.Transport.SetHandler(n.handleMessage)
	return n, nil
}

// ID returns the node's identifier.
func (n *Node) ID() string { return n.id }

// Stats returns a copy of the node's counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Results returns the outcomes of locally originated queries so far.
func (n *Node) Results() []QueryResult {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]QueryResult(nil), n.results...)
}

// OnQueryDone installs a callback fired when a local query reaches a
// terminal status.
func (n *Node) OnQueryDone(fn func(QueryResult)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onDone = fn
}

// PendingQueries counts local queries that have not reached a terminal
// status.
func (n *Node) PendingQueries() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.tr.Clock().Now()
	pending := 0
	for _, q := range n.queries {
		if q.engine.Step(now) == core.Pending {
			pending++
		}
	}
	return pending
}

func (n *Node) now() time.Time { return n.tr.Clock().Now() }

// DebugQueries renders the state of all local queries, for diagnostics.
// Queries and their outstanding fetches are listed in sorted order so the
// dump is stable run to run (both live in maps).
func (n *Node) DebugQueries() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.now()
	ids := make([]string, 0, len(n.queries))
	for id := range n.queries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := ""
	for _, id := range ids {
		q := n.queries[id]
		inflight := make([]string, 0, len(q.outstanding))
		for obj, at := range q.outstanding {
			inflight = append(inflight, fmt.Sprintf("%s@%s", obj, at.Format("15:04:05")))
		}
		sort.Strings(inflight)
		out += fmt.Sprintf("%s status=%v unknown=%v outstanding=%v expr=%s\n",
			id, q.engine.Step(now), q.engine.UnknownLabels(now), inflight, q.engine.Expr())
	}
	return out
}

// QueryInit issues a decision query at this node (the paper's Query_Init):
// it plans retrieval per the node's scheme, floods the expression to
// neighbors for prefetching, and starts fetching evidence.
func (n *Node) QueryInit(expr boolexpr.DNF, deadline time.Duration) (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(expr.Terms) == 0 {
		return "", errors.New("athena: empty decision expression")
	}
	n.querySeq++
	id := fmt.Sprintf("%s/q%d", n.id, n.querySeq)
	now := n.now()
	abs := now.Add(deadline)
	exprText := expr.String()

	q := &localQuery{
		engine:      core.NewEngineWithPlan(id, expr, abs, n.meta, n.planFor(expr, exprText)),
		issued:      now,
		outstanding: make(map[string]time.Time),
		requested:   make(map[string]bool),
		attempts:    make(map[string]int),
		suspect:     make(map[string]bool),
		batch:       n.scheme == SchemeCMP || n.scheme == SchemeSLT || n.scheme == SchemeLCF,
		corr:        make(map[string]*corrState),
	}
	if n.scheme != SchemeCMP {
		q.selected = n.selectSources(id, expr.Labels())
	}
	n.queries[id] = q
	n.stats.QueriesIssued++
	n.seenAnnounce[id] = true

	// Step (iv): share the decision structure with neighbors.
	n.floodAnnounce(&QueryAnnounce{
		QueryID:  id,
		Origin:   n.id,
		Expr:     exprText,
		Deadline: abs,
		TTL:      n.announceTTL,
	}, "")

	// Deadline watchdog.
	n.timers.After(deadline+time.Millisecond, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if lq, ok := n.queries[id]; ok {
			lq.engine.Step(n.now())
			n.recordIfTerminal(lq)
		}
	})

	n.pump(q)
	return id, nil
}

// cachedPlan is one memoized planFor result, valid while the directory
// version it was computed under still holds.
type cachedPlan struct {
	plan boolexpr.QueryPlan
	dirv uint64
}

// planFor builds the evaluation plan per scheme: decision-driven schemes
// order terms by short-circuit efficiency and literals by longest validity
// first; batch schemes use the greedy plan only for bookkeeping. Plans are
// memoized by expression text — recurring queries (QueryEvery) re-plan an
// identical expression every period otherwise — and invalidated when the
// directory version moves (membership churn re-prices the metadata the
// plan was built from). Cached plans are shared across engines; the engine
// only reads them.
func (n *Node) planFor(expr boolexpr.DNF, key string) boolexpr.QueryPlan {
	dirv := n.dir.Version()
	if c, ok := n.planCache[key]; ok && c.dirv == dirv {
		n.stats.PlanCacheHits++
		return c.plan
	}
	plan := boolexpr.GreedyPlan(expr, n.meta)
	if n.scheme == SchemeLVF || n.scheme == SchemeLVFL {
		for ti, t := range expr.Terms {
			order := plan.LiteralOrder[ti]
			validity := make([]time.Duration, len(t.Literals))
			for li := range t.Literals {
				validity[li] = n.meta.Get(t.Literals[li].Label).Validity
			}
			sort.SliceStable(order, func(a, b int) bool {
				return validity[order[a]] > validity[order[b]]
			})
		}
	}
	if n.planCache == nil || len(n.planCache) >= 256 {
		n.planCache = make(map[string]cachedPlan)
	}
	n.planCache[key] = cachedPlan{plan: plan, dirv: dirv}
	return plan
}

// pump advances a local query: issues whatever requests its scheme wants
// outstanding, schedules the next expiry recheck, and records terminal
// status. Callers hold n.mu.
func (n *Node) pump(q *localQuery) {
	now := n.now()
	if q.engine.Step(now) != core.Pending {
		n.recordIfTerminal(q)
		return
	}
	if q.batch {
		n.pumpBatch(q, now)
	} else {
		n.pumpSequential(q, now)
	}
	n.scheduleExpiryCheck(q, now)
}

// pumpBatch (cmp/slt/lcf) keeps a request in flight for every unresolved
// label's object.
func (n *Node) pumpBatch(q *localQuery, now time.Time) {
	type target struct {
		source string
		obj    string
		size   int64 // descriptor size, precomputed for the LCF sort
	}
	var targets []target
	seen := make(map[string]bool)
	add := func(src string) {
		desc, ok := n.descriptorOf(src)
		if !ok {
			return
		}
		obj := desc.Name.String()
		if !seen[obj] {
			seen[obj] = true
			targets = append(targets, target{source: src, obj: obj, size: desc.Size})
		}
	}
	for _, label := range q.engine.UnknownLabels(now) {
		if n.scheme == SchemeCMP {
			for _, src := range n.sourcesForLabel(q, label) {
				add(src)
			}
		} else {
			if src := n.sourceFor(q, label); src != "" {
				add(src)
			}
		}
	}
	if n.scheme == SchemeLCF {
		sort.SliceStable(targets, func(a, b int) bool {
			return targets[a].size < targets[b].size
		})
	}
	for _, t := range targets {
		if len(q.outstanding) >= n.batchWindow {
			break
		}
		if _, inFlight := q.outstanding[t.obj]; inFlight {
			continue
		}
		n.requestObject(q, t.source, now)
	}
}

// pumpSequential (lvf/lvfl) is the decision-driven retrieval schedule:
// evidence is fetched only for the course of action currently under
// evaluation, at most sequentialWindow transfers at a time, in the plan's
// order (longest validity first within the term). A falsifying label
// short-circuits the term and the next pump moves on to the next
// alternative.
func (n *Node) pumpSequential(q *localQuery, now time.Time) {
	a := q.engine.Assignment(now)
	expr := q.engine.Expr()
	plan := q.engine.Plan()
	for _, ti := range plan.TermOrder {
		t := expr.Terms[ti]
		if t.Eval(a) != boolexpr.Unknown {
			continue // decided either way; not the active term
		}
		// Active term: keep up to sequentialWindow transfers in flight.
		for _, li := range plan.LiteralOrder[ti] {
			if len(q.outstanding) >= n.sequentialWindow {
				return
			}
			label := t.Literals[li].Label
			if a.Get(label) != boolexpr.Unknown {
				continue
			}
			src := n.sourceFor(q, label)
			if n.sensorNoise > 0 {
				var retry time.Time
				src, retry = n.corrSource(q, label, now)
				if src == "" && !retry.IsZero() {
					// Every fresh sample already voted; try again once a
					// new sample can exist.
					n.scheduleRetry(q, retry, now)
				}
			}
			if src == "" {
				continue // uncoverable (or awaiting fresh corroboration)
			}
			desc, ok := n.descriptorOf(src)
			if !ok {
				continue
			}
			if _, inFlight := q.outstanding[desc.Name.String()]; inFlight {
				continue
			}
			n.requestObject(q, src, now)
		}
		return
	}
}

// scheduleRetry arms a pump at the given instant (deduplicated per
// query). Callers hold n.mu.
func (n *Node) scheduleRetry(q *localQuery, at, now time.Time) {
	if q.nextRetry.Equal(at) {
		return
	}
	q.nextRetry = at
	id := q.engine.ID()
	n.timers.After(at.Sub(now)+time.Millisecond, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if lq, ok := n.queries[id]; ok {
			lq.nextRetry = time.Time{}
			n.pump(lq)
		}
	})
}

// requestObject enqueues a fetch for the source's object on behalf of q.
// Callers hold n.mu.
func (n *Node) requestObject(q *localQuery, source string, now time.Time) {
	desc, ok := n.descriptorOf(source)
	if !ok {
		return
	}
	objName := desc.Name.String()
	// The request's labels are the query labels this object can resolve
	// and that are still unknown.
	unknown := make(map[string]bool)
	for _, l := range q.engine.UnknownLabels(now) {
		unknown[l] = true
	}
	var want []string
	for _, l := range desc.Labels {
		if unknown[l] {
			want = append(want, l)
		}
	}
	if len(want) == 0 {
		return
	}
	if q.requested[objName] {
		n.stats.Refetches++
	}
	q.requested[objName] = true
	q.outstanding[objName] = now
	n.stats.RequestsSent++
	n.fetchQ = append(n.fetchQ, queuedRequest{
		req: &ObjectRequest{
			QueryID:    q.engine.ID(),
			Origin:     n.id,
			Object:     objName,
			SourceNode: source,
			Labels:     want,
		},
		urgency: n.queryUrgency(q, now).UnixNano(),
	})
	// Recovery timer: if no answer arrives (lost request or data,
	// overload), clear the in-flight mark so the next pump re-requests —
	// with exponential backoff across attempts, and switching to an
	// alternate source once this one exhausts its retries. With retries
	// disabled this degrades to the single fixed-timeout safety net. The
	// timestamp check ignores answers that arrived and were re-requested.
	id := q.engine.ID()
	sentAt := now
	timeout := n.requestTimeout
	if !n.disableRetries {
		timeout = n.retryDelay(q.attempts[objName], desc.Size)
	}
	n.timers.After(timeout, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		lq, ok := n.queries[id]
		if !ok || lq.recorded {
			return
		}
		if at, inFlight := lq.outstanding[objName]; !inFlight || !at.Equal(sentAt) {
			return
		}
		delete(lq.outstanding, objName)
		if !n.disableRetries {
			n.stats.RequestTimeouts++
			n.m.retryTimeouts.Inc()
			lq.attempts[objName]++
			if lq.attempts[objName] > n.maxRetries && !lq.suspect[source] {
				lq.suspect[source] = true
				n.m.failovers.Inc()
			}
		}
		n.pump(lq)
	})
	n.kick()
}

// retryDelay is the backoff delay before attempt's retry: RetryInterval
// scaled by RetryBackoff^attempt (capped at RequestTimeout), plus a
// size-proportional allowance so a large object still serializing over a
// slow multi-hop path is not declared lost while making progress. Callers
// hold n.mu.
func (n *Node) retryDelay(attempt int, size int64) time.Duration {
	d := n.retryInterval
	for i := 0; i < attempt; i++ {
		d = time.Duration(float64(d) * n.retryBackoff)
		if d >= n.requestTimeout {
			d = n.requestTimeout
			break
		}
	}
	if d > n.requestTimeout {
		d = n.requestTimeout
	}
	if size > 0 && n.retryBandwidth > 0 {
		d += time.Duration(float64(size) / n.retryBandwidth * float64(time.Second))
	}
	return d
}

// sourceFor picks the source covering label for query q, steering around
// sources whose requests kept timing out (the directory supplies the
// alternate next hop). When every covering source is suspect, the primary
// is retried — a struggling source beats none. On a sharded directory an
// unowned label resolves through the router's cache instead. Callers hold
// n.mu.
func (n *Node) sourceFor(q *localQuery, label string) string {
	if n.shardOn && !n.shardRouter.OwnsLabel(label) {
		return n.sourceForRouted(q, label)
	}
	if len(q.suspect) > 0 {
		if s := n.dir.SourceForLabelExcluding(label, q.selected, q.suspect); s != "" {
			return s
		}
	}
	return n.dir.SourceForLabel(label, q.selected)
}

// queryUrgency is the hierarchical priority key of ref [1]: the minimum
// of the query's deadline and the earliest expiration its evidence could
// have (now + the smallest validity interval among its labels). Callers
// hold n.mu.
func (n *Node) queryUrgency(q *localQuery, now time.Time) time.Time {
	u := q.engine.Deadline()
	for _, l := range q.engine.Labels() {
		if v := n.meta.Get(l).Validity; v > 0 {
			if exp := now.Add(v); exp.Before(u) {
				u = exp
			}
		}
	}
	return u
}

// scheduleExpiryCheck arms a timer at the engine's next load-bearing
// evidence expiry so stale labels get refetched. Callers hold n.mu.
func (n *Node) scheduleExpiryCheck(q *localQuery, now time.Time) {
	exp, ok := q.engine.NextExpiry(now)
	if !ok {
		return
	}
	if q.nextExpiry.Equal(exp) {
		return // already armed
	}
	q.nextExpiry = exp
	id := q.engine.ID()
	n.timers.After(exp.Sub(now)+time.Millisecond, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if lq, ok := n.queries[id]; ok {
			lq.nextExpiry = time.Time{}
			n.pump(lq)
		}
	})
}

// recordIfTerminal records a terminal query exactly once. Callers hold
// n.mu.
func (n *Node) recordIfTerminal(q *localQuery) {
	if q.recorded {
		return
	}
	status := q.engine.Step(n.now())
	if status == core.Pending {
		return
	}
	q.recorded = true
	switch status {
	case core.ResolvedTrue:
		n.stats.ResolvedTrue++
	case core.ResolvedFalse:
		n.stats.ResolvedFalse++
	case core.Expired:
		n.stats.Expired++
	}
	res := QueryResult{
		QueryID:  q.engine.ID(),
		Status:   status,
		Issued:   q.issued,
		Finished: q.engine.ResolvedAt(),
		Deadline: q.engine.Deadline(),
	}
	if status == core.ResolvedTrue || status == core.ResolvedFalse {
		n.m.resolveLatency.ObserveDuration(res.Finished.Sub(res.Issued))
	}
	n.results = append(n.results, res)
	if n.onDone != nil {
		cb := n.onDone
		n.timers.After(0, func() { cb(res) })
	}
}

// Prewarm floods a decision expression that is *anticipated* but not yet
// issued (Section VIII: workflow anticipation): nearby sources prefetch
// the evidence toward this node in the background, so a subsequent
// QueryInit for the same logic finds it cached. No local query state is
// created. Requires prefetching to be enabled somewhere in the network to
// have any effect.
func (n *Node) Prewarm(expr boolexpr.DNF) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(expr.Terms) == 0 {
		return errors.New("athena: empty decision expression")
	}
	n.querySeq++
	id := fmt.Sprintf("%s/warm%d", n.id, n.querySeq)
	n.seenAnnounce[id] = true
	n.floodAnnounce(&QueryAnnounce{
		QueryID:  id,
		Origin:   n.id,
		Expr:     expr.String(),
		Deadline: n.now().Add(time.Hour),
		TTL:      n.announceTTL,
	}, "")
	return nil
}

// QueryEvery issues the decision expression periodically (Section IV-B:
// "other decisions may need to be done periodically"), starting
// immediately. Each firing is an independent query with the given
// deadline. The returned stop function cancels future firings (it never
// interrupts an in-flight query).
func (n *Node) QueryEvery(expr boolexpr.DNF, deadline, period time.Duration) (stop func(), err error) {
	if period <= 0 {
		return nil, errors.New("athena: period must be positive")
	}
	if len(expr.Terms) == 0 {
		return nil, errors.New("athena: empty decision expression")
	}
	stopped := false
	var fire func()
	fire = func() {
		n.mu.Lock()
		cancelled := stopped
		n.mu.Unlock()
		if cancelled {
			return
		}
		// Errors are impossible here (the expression was validated), but
		// surface defensively through the result stream by skipping.
		_, _ = n.QueryInit(expr, deadline)
		n.timers.After(period, fire)
	}
	n.timers.After(0, fire)
	return func() {
		n.mu.Lock()
		stopped = true
		n.mu.Unlock()
	}, nil
}
