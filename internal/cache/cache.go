// Package cache implements the in-network stores of Sections VI-B and VI-D:
// a byte-capacity content store for evidence objects with freshness decay
// (stale entries age out of their validity intervals) and a label cache for
// shared annotation records. Eviction removes stale entries first, then
// least-recently-used fresh entries.
package cache

import (
	"container/list"
	"sort"
	"time"

	"athena/internal/metrics"
	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/trust"
)

// Stats counts cache outcomes.
type Stats struct {
	// Hits counts fresh exact-name hits.
	Hits int64
	// ApproxHits counts hits served by approximate name substitution.
	ApproxHits int64
	// Misses counts lookups with no usable entry.
	Misses int64
	// StaleDrops counts entries evicted or rejected because they aged out.
	StaleDrops int64
	// Evictions counts capacity evictions of fresh entries.
	Evictions int64
}

// Metrics mirrors a cache's counters into a metrics registry. Any field
// may be nil (a nil counter is a no-op), so an uninstrumented cache pays
// only a nil check per event.
type Metrics struct {
	Hits, ApproxHits, Misses, StaleDrops, Evictions *metrics.Counter
}

// Store is a content store for evidence objects with a byte-capacity bound.
// It is not safe for concurrent use; each simulated node owns one.
type Store struct {
	capacity int64
	used     int64
	index    names.Trie[*entry]
	lru      list.List // front = most recently used
	stats    Stats
	m        Metrics
}

type entry struct {
	obj *object.Object
	elt *list.Element // element value is the entry itself
}

// NewStore returns a content store bounded to capacity bytes. A capacity
// of 0 disables caching (every Put is a no-op); negative capacity means
// unbounded.
func NewStore(capacity int64) *Store {
	return &Store{capacity: capacity}
}

// Stats returns a copy of the store's counters.
func (s *Store) Stats() Stats { return s.stats }

// Instrument mirrors the store's counters into m from now on.
func (s *Store) Instrument(m Metrics) { s.m = m }

// Len reports the number of cached objects.
func (s *Store) Len() int { return s.index.Len() }

// UsedBytes reports the bytes currently cached.
func (s *Store) UsedBytes() int64 { return s.used }

// Put caches an object (replacing any same-name entry), evicting stale
// entries first and then LRU entries until the object fits. Objects larger
// than the whole capacity, and objects already stale at now, are not
// cached.
func (s *Store) Put(o *object.Object, now time.Time) {
	if s.capacity == 0 || !o.FreshAt(now) {
		return
	}
	// Check fit before touching any existing same-name entry: replacing a
	// cached object with an over-capacity newer version must keep the old
	// (still fresh) entry rather than evicting it and caching nothing.
	if s.capacity > 0 && o.Size > s.capacity {
		return
	}
	if old, ok := s.index.Get(o.ID.Name); ok {
		s.removeEntry(o.ID.Name, old)
	}
	if s.capacity > 0 {
		s.reap(now)
		for s.used+o.Size > s.capacity {
			if !s.evictLRU() {
				return
			}
		}
	}
	e := &entry{obj: o}
	e.elt = s.lru.PushFront(e)
	s.index.Put(o.ID.Name, e)
	s.used += o.Size
}

// Get returns a fresh cached object by exact name, updating recency. A
// stale entry is dropped and counts as a miss.
func (s *Store) Get(name names.Name, now time.Time) (*object.Object, bool) {
	e, ok := s.index.Get(name)
	if !ok {
		s.stats.Misses++
		s.m.Misses.Inc()
		return nil, false
	}
	if !e.obj.FreshAt(now) {
		s.removeEntry(name, e)
		s.stats.StaleDrops++
		s.stats.Misses++
		s.m.StaleDrops.Inc()
		s.m.Misses.Inc()
		return nil, false
	}
	s.lru.MoveToFront(e.elt)
	s.stats.Hits++
	s.m.Hits.Inc()
	return e.obj, true
}

// GetApprox returns a fresh cached object whose name similarity to the
// query is at least minSimilarity — the Section V-A approximate
// substitution used for congestion control. Exact matches are preferred
// automatically (similarity 1).
func (s *Store) GetApprox(name names.Name, minSimilarity float64, now time.Time) (*object.Object, bool) {
	match, e, ok := s.index.Nearest(name, minSimilarity, func(_ names.Name, e *entry) bool {
		return e.obj.FreshAt(now)
	})
	if !ok {
		s.stats.Misses++
		s.m.Misses.Inc()
		return nil, false
	}
	s.lru.MoveToFront(e.elt)
	if match.Compare(name) == 0 {
		s.stats.Hits++
		s.m.Hits.Inc()
	} else {
		s.stats.ApproxHits++
		s.m.ApproxHits.Inc()
	}
	return e.obj, true
}

// Reap drops all entries stale at now and returns how many were dropped.
func (s *Store) Reap(now time.Time) int { return s.reap(now) }

func (s *Store) reap(now time.Time) int {
	// Scan the LRU list rather than walking the name index: the trie
	// walk re-materializes every stored name, while the list already
	// holds the entries. Removal is order-independent.
	dropped := 0
	var next *list.Element
	for elt := s.lru.Front(); elt != nil; elt = next {
		next = elt.Next()
		e, ok := elt.Value.(*entry)
		if !ok || e.obj.FreshAt(now) {
			continue
		}
		s.removeEntry(e.obj.ID.Name, e)
		s.stats.StaleDrops++
		s.m.StaleDrops.Inc()
		dropped++
	}
	return dropped
}

func (s *Store) evictLRU() bool {
	back := s.lru.Back()
	if back == nil {
		return false
	}
	e, ok := back.Value.(*entry)
	if !ok {
		return false
	}
	s.removeEntry(e.obj.ID.Name, e)
	s.stats.Evictions++
	s.m.Evictions.Inc()
	return true
}

func (s *Store) removeEntry(name names.Name, e *entry) {
	s.index.Delete(name)
	s.lru.Remove(e.elt)
	s.used -= e.obj.Size
}

// LabelCache stores shared label records (Section VI-D), keyed by label
// name and annotator, so consumers with different trust policies can each
// find an acceptable record.
type LabelCache struct {
	records map[string]map[string]*trust.Label // label -> annotator -> record
	stats   Stats
	m       Metrics
}

// NewLabelCache returns an empty label cache.
func NewLabelCache() *LabelCache {
	return &LabelCache{records: make(map[string]map[string]*trust.Label)}
}

// Stats returns a copy of the cache's counters.
func (c *LabelCache) Stats() Stats { return c.stats }

// Instrument mirrors the cache's counters into m from now on.
func (c *LabelCache) Instrument(m Metrics) { c.m = m }

// Len reports the number of cached records.
func (c *LabelCache) Len() int {
	n := 0
	for _, m := range c.records {
		n += len(m)
	}
	return n
}

// Put caches a record, keeping only the freshest record per
// (label, annotator).
func (c *LabelCache) Put(l *trust.Label) {
	byAnn := c.records[l.Name]
	if byAnn == nil {
		byAnn = make(map[string]*trust.Label)
		c.records[l.Name] = byAnn
	}
	if prev, ok := byAnn[l.Annotator]; ok && prev.Expiry().After(l.Expiry()) {
		return
	}
	byAnn[l.Annotator] = l
}

// Records returns every record still fresh at now, sorted by label name
// then annotator — the payload of a membership anti-entropy exchange
// (partition healing shares label caches, not just directories). Stale
// records encountered are pruned.
func (c *LabelCache) Records(now time.Time) []trust.Label {
	var out []trust.Label
	for label, byAnn := range c.records {
		for ann, rec := range byAnn {
			if !rec.FreshAt(now) {
				delete(byAnn, ann)
				c.stats.StaleDrops++
				c.m.StaleDrops.Inc()
				continue
			}
			out = append(out, *rec)
		}
		if len(byAnn) == 0 {
			delete(c.records, label)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Annotator < out[j].Annotator
	})
	return out
}

// Get returns the freshest record for label accepted by the policy, or
// false. Records with equal expiry are ranked by tieRank, so the choice
// never depends on map iteration order. Stale records encountered are
// pruned.
func (c *LabelCache) Get(label string, policy *trust.Policy, now time.Time) (*trust.Label, bool) {
	byAnn := c.records[label]
	var best *trust.Label
	for ann, rec := range byAnn {
		if !rec.FreshAt(now) {
			delete(byAnn, ann)
			c.stats.StaleDrops++
			c.m.StaleDrops.Inc()
			continue
		}
		if !policy.Trusts(ann) {
			continue
		}
		if best == nil || rec.Expiry().After(best.Expiry()) ||
			(rec.Expiry().Equal(best.Expiry()) && tieRank(label, ann) < tieRank(label, best.Annotator)) {
			best = rec
		}
	}
	if len(byAnn) == 0 {
		delete(c.records, label)
	}
	if best == nil {
		c.stats.Misses++
		c.m.Misses.Inc()
		return nil, false
	}
	c.stats.Hits++
	c.m.Hits.Inc()
	return best, true
}

// tieRank orders records of equal expiry: FNV-1a of the label and the
// annotator id. The winner is fixed per label but does not follow the
// sort order of annotator ids. Plain id order would not be neutral: the
// simulator names nodes by index and trusts the first fraction of them,
// so smallest-id-wins would favour trusted annotators and largest-id-wins
// untrusted ones.
func tieRank(label, annotator string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * prime
	}
	h *= prime // a zero byte between the two, so ("ab","c") != ("a","bc")
	for i := 0; i < len(annotator); i++ {
		h = (h ^ uint64(annotator[i])) * prime
	}
	return h
}
