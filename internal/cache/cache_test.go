package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/trust"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func obj(name string, size int64, validity time.Duration) *object.Object {
	return &object.Object{
		ID:       object.ID{Name: names.MustParse(name), Version: 1},
		Size:     size,
		Created:  t0,
		Validity: validity,
	}
}

func TestStorePutGet(t *testing.T) {
	s := NewStore(1000)
	s.Put(obj("/a/x", 400, time.Minute), t0)
	got, ok := s.Get(names.MustParse("/a/x"), t0.Add(time.Second))
	if !ok || got.Size != 400 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := s.Get(names.MustParse("/a/y"), t0); ok {
		t.Error("Get hit for absent name")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStoreStaleEntriesDropped(t *testing.T) {
	s := NewStore(1000)
	s.Put(obj("/a/x", 100, time.Second), t0)
	if _, ok := s.Get(names.MustParse("/a/x"), t0.Add(2*time.Second)); ok {
		t.Fatal("stale object served")
	}
	if s.Len() != 0 {
		t.Errorf("stale entry still indexed, Len=%d", s.Len())
	}
	if s.Stats().StaleDrops != 1 {
		t.Errorf("StaleDrops = %d, want 1", s.Stats().StaleDrops)
	}
}

func TestStoreRejectsStaleAndOversized(t *testing.T) {
	s := NewStore(1000)
	stale := obj("/a/x", 100, time.Second)
	s.Put(stale, t0.Add(time.Minute)) // already stale at insert
	if s.Len() != 0 {
		t.Error("stale object cached")
	}
	s.Put(obj("/a/big", 5000, time.Minute), t0)
	if s.Len() != 0 {
		t.Error("oversized object cached")
	}
}

func TestStoreReplaceWithOversizeKeepsOld(t *testing.T) {
	s := NewStore(1000)
	s.Put(obj("/a/x", 400, time.Minute), t0)
	// A newer same-name version too big for the whole store must be
	// rejected without evicting the cached (still fresh) old version.
	big := obj("/a/x", 5000, time.Minute)
	big.ID.Version = 2
	s.Put(big, t0.Add(time.Second))
	got, ok := s.Get(names.MustParse("/a/x"), t0.Add(2*time.Second))
	if !ok {
		t.Fatal("old entry evicted by rejected oversize replacement")
	}
	if got.Size != 400 || got.ID.Version != 1 {
		t.Errorf("Get = size %d version %d, want the old 400-byte v1", got.Size, got.ID.Version)
	}
	if s.UsedBytes() != 400 {
		t.Errorf("UsedBytes = %d, want 400", s.UsedBytes())
	}
}

func TestStoreZeroCapacityDisables(t *testing.T) {
	s := NewStore(0)
	s.Put(obj("/a/x", 1, time.Minute), t0)
	if s.Len() != 0 {
		t.Error("zero-capacity store cached")
	}
}

func TestStoreUnboundedNegativeCapacity(t *testing.T) {
	s := NewStore(-1)
	for i := 0; i < 100; i++ {
		s.Put(obj(fmt.Sprintf("/a/n%d", i), 1_000_000, time.Minute), t0)
	}
	if s.Len() != 100 {
		t.Errorf("Len = %d, want 100", s.Len())
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(300)
	s.Put(obj("/a/1", 100, time.Minute), t0)
	s.Put(obj("/a/2", 100, time.Minute), t0)
	s.Put(obj("/a/3", 100, time.Minute), t0)
	// Touch /a/1 so /a/2 becomes LRU.
	if _, ok := s.Get(names.MustParse("/a/1"), t0); !ok {
		t.Fatal("warm-up get missed")
	}
	s.Put(obj("/a/4", 100, time.Minute), t0)
	if _, ok := s.Get(names.MustParse("/a/2"), t0); ok {
		t.Error("LRU entry survived eviction")
	}
	for _, n := range []string{"/a/1", "/a/3", "/a/4"} {
		if _, ok := s.Get(names.MustParse(n), t0); !ok {
			t.Errorf("%s evicted unexpectedly", n)
		}
	}
	if s.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", s.Stats().Evictions)
	}
}

func TestStoreEvictsStaleBeforeFresh(t *testing.T) {
	s := NewStore(200)
	s.Put(obj("/a/stale", 100, time.Second), t0)
	s.Put(obj("/a/fresh", 100, time.Hour), t0)
	// At t0+2s the stale entry should be reaped to make room, keeping the
	// fresh one.
	s.Put(obj("/a/new", 100, time.Hour), t0.Add(2*time.Second))
	if _, ok := s.Get(names.MustParse("/a/fresh"), t0.Add(3*time.Second)); !ok {
		t.Error("fresh entry evicted while stale entry available")
	}
	if _, ok := s.Get(names.MustParse("/a/new"), t0.Add(3*time.Second)); !ok {
		t.Error("new entry not cached")
	}
}

func TestStoreReplaceSameName(t *testing.T) {
	s := NewStore(1000)
	s.Put(obj("/a/x", 100, time.Minute), t0)
	o2 := obj("/a/x", 200, time.Minute)
	o2.ID.Version = 2
	s.Put(o2, t0)
	if s.Len() != 1 || s.UsedBytes() != 200 {
		t.Errorf("Len=%d Used=%d, want 1/200", s.Len(), s.UsedBytes())
	}
	got, _ := s.Get(names.MustParse("/a/x"), t0)
	if got.ID.Version != 2 {
		t.Errorf("Version = %d, want 2", got.ID.Version)
	}
}

func TestStoreGetApprox(t *testing.T) {
	s := NewStore(1000)
	s.Put(obj("/city/market/south/cam1", 100, time.Minute), t0)
	got, ok := s.GetApprox(names.MustParse("/city/market/south/cam2"), 0.7, t0)
	if !ok || got.ID.Name.String() != "/city/market/south/cam1" {
		t.Fatalf("GetApprox = %v, %v", got, ok)
	}
	if s.Stats().ApproxHits != 1 {
		t.Errorf("ApproxHits = %d, want 1", s.Stats().ApproxHits)
	}
	if _, ok := s.GetApprox(names.MustParse("/rural/x"), 0.7, t0); ok {
		t.Error("GetApprox matched dissimilar name")
	}
	// Stale candidates are vetoed.
	s2 := NewStore(1000)
	s2.Put(obj("/city/market/south/cam1", 100, time.Second), t0)
	if _, ok := s2.GetApprox(names.MustParse("/city/market/south/cam2"), 0.7, t0.Add(time.Minute)); ok {
		t.Error("GetApprox served stale object")
	}
}

// Property: the store never exceeds capacity and never serves stale data,
// under random operations.
func TestStoreInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const capacity = 500
	s := NewStore(capacity)
	now := t0
	for i := 0; i < 3000; i++ {
		now = now.Add(time.Duration(rng.Intn(500)) * time.Millisecond)
		name := fmt.Sprintf("/p/%d", rng.Intn(30))
		switch rng.Intn(2) {
		case 0:
			o := obj(name, int64(50+rng.Intn(200)), time.Duration(rng.Intn(5))*time.Second)
			o.Created = now
			s.Put(o, now)
		case 1:
			if got, ok := s.Get(names.MustParse(name), now); ok && !got.FreshAt(now) {
				t.Fatal("served stale object")
			}
		}
		if s.UsedBytes() > capacity {
			t.Fatalf("capacity exceeded: %d > %d", s.UsedBytes(), capacity)
		}
	}
}

func makeLabel(t *testing.T, auth *trust.Authority, annotator, name string, value bool, validity time.Duration) *trust.Label {
	t.Helper()
	signer := auth.Register(annotator, []byte(annotator+"-secret"))
	l := &trust.Label{Name: name, Value: value, Computed: t0, Validity: validity}
	signer.Sign(l)
	return l
}

func TestLabelCache(t *testing.T) {
	auth := trust.NewAuthority()
	c := NewLabelCache()
	c.Put(makeLabel(t, auth, "ann1", "viableA", true, 10*time.Second))
	c.Put(makeLabel(t, auth, "ann2", "viableA", false, time.Minute))

	// TrustAll: freshest record wins (ann2's, longer validity).
	rec, ok := c.Get("viableA", trust.TrustAll(), t0.Add(time.Second))
	if !ok || rec.Annotator != "ann2" {
		t.Fatalf("Get = %v, %v", rec, ok)
	}
	// Restricted trust picks the trusted annotator even if less fresh.
	rec, ok = c.Get("viableA", trust.TrustOnly("ann1"), t0.Add(time.Second))
	if !ok || rec.Annotator != "ann1" {
		t.Fatalf("Get trusted-only = %v, %v", rec, ok)
	}
	// Nothing trusted: miss.
	if _, ok := c.Get("viableA", trust.TrustNone(), t0.Add(time.Second)); ok {
		t.Error("TrustNone got a record")
	}
	// Stale records pruned.
	if _, ok := c.Get("viableA", trust.TrustOnly("ann1"), t0.Add(30*time.Second)); ok {
		t.Error("stale record served")
	}
	if c.Len() != 1 {
		t.Errorf("Len after prune = %d, want 1", c.Len())
	}
}

func TestLabelCacheKeepsFreshest(t *testing.T) {
	auth := trust.NewAuthority()
	c := NewLabelCache()
	long := makeLabel(t, auth, "ann1", "x", true, time.Minute)
	short := makeLabel(t, auth, "ann1", "x", false, time.Second)
	c.Put(long)
	c.Put(short) // must not displace the longer-lived record
	rec, ok := c.Get("x", trust.TrustAll(), t0)
	if !ok || rec.Validity != time.Minute {
		t.Fatalf("Get = %v, %v; freshest record displaced", rec, ok)
	}
}

// Records of equal expiry tie-break on tieRank, not on map iteration or
// insertion order: every Get, on every cache holding the same records,
// must pick the same one.
func TestLabelCacheTieBreakIsDeterministic(t *testing.T) {
	auth := trust.NewAuthority()
	anns := []string{"ann5", "ann3", "ann9", "ann1", "ann7", "ann2"}
	recs := make(map[string]*trust.Label)
	for _, ann := range anns {
		recs[ann] = makeLabel(t, auth, ann, "x", true, time.Minute)
	}
	// best returns the annotator with the smallest rank among allowed.
	best := func(allowed ...string) string {
		win := allowed[0]
		for _, a := range allowed[1:] {
			if tieRank("x", a) < tieRank("x", win) {
				win = a
			}
		}
		return win
	}
	wantAll := best(anns...)
	subset := []string{"ann7", "ann3", "ann9"}
	wantSubset := best(subset...)

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		c := NewLabelCache()
		for _, i := range rng.Perm(len(anns)) {
			c.Put(recs[anns[i]])
		}
		for i := 0; i < 5; i++ {
			if rec, ok := c.Get("x", trust.TrustAll(), t0); !ok || rec.Annotator != wantAll {
				t.Fatalf("trial %d: Get = %v, %v; want %s's record", trial, rec, ok, wantAll)
			}
			if rec, ok := c.Get("x", trust.TrustOnly(subset...), t0); !ok || rec.Annotator != wantSubset {
				t.Fatalf("trial %d: Get trusted-only = %v, %v; want %s's record", trial, rec, ok, wantSubset)
			}
		}
	}

	// A fresher record still beats any rank.
	c := NewLabelCache()
	for _, ann := range anns {
		c.Put(recs[ann])
	}
	c.Put(makeLabel(t, auth, "ann8", "x", false, 2*time.Minute))
	if rec, ok := c.Get("x", trust.TrustAll(), t0); !ok || rec.Annotator != "ann8" {
		t.Fatalf("Get = %v, %v; want the fresher ann8 record", rec, ok)
	}
}

// The rank must not follow id order, or the tie-break would favour
// whichever end of the id space a deployment trusts.
func TestTieRankDoesNotFollowIDOrder(t *testing.T) {
	ascending, descending := true, true
	for i := 1; i < 16; i++ {
		prev := tieRank("x", fmt.Sprintf("athena%02d", i-1))
		cur := tieRank("x", fmt.Sprintf("athena%02d", i))
		ascending = ascending && prev < cur
		descending = descending && prev > cur
	}
	if ascending || descending {
		t.Error("tieRank is monotone in the annotator id")
	}
	if tieRank("ab", "c") == tieRank("a", "bc") {
		t.Error("tieRank does not separate label from annotator")
	}
}

func BenchmarkStorePutGet(b *testing.B) {
	s := NewStore(1 << 20)
	namesList := make([]names.Name, 64)
	for i := range namesList {
		namesList[i] = names.MustParse(fmt.Sprintf("/bench/n%d", i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := namesList[i%len(namesList)]
		o := &object.Object{ID: object.ID{Name: n, Version: uint64(i)}, Size: 1000, Created: t0, Validity: time.Hour}
		s.Put(o, t0)
		s.Get(n, t0)
	}
}

// Property (testing/quick): the label cache never returns a record that is
// stale or untrusted, regardless of insertion order.
func TestQuickLabelCacheSafety(t *testing.T) {
	auth := trust.NewAuthority()
	signers := map[string]trust.Signer{
		"annA": auth.Register("annA", []byte("a")),
		"annB": auth.Register("annB", []byte("b")),
	}
	policy := trust.TrustOnly("annA")

	f := func(steps []struct {
		Ann      bool // false=annA, true=annB
		Value    bool
		Validity uint8
		Offset   uint8
	}) bool {
		c := NewLabelCache()
		now := t0
		for _, s := range steps {
			ann := "annA"
			if s.Ann {
				ann = "annB"
			}
			l := &trust.Label{
				Name:     "x",
				Value:    s.Value,
				Computed: now,
				Validity: time.Duration(s.Validity) * time.Second,
			}
			signers[ann].Sign(l)
			c.Put(l)
			now = now.Add(time.Duration(s.Offset) * time.Second)
			if rec, ok := c.Get("x", policy, now); ok {
				if rec.Annotator != "annA" {
					return false // untrusted record served
				}
				if !rec.FreshAt(now) {
					return false // stale record served
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
