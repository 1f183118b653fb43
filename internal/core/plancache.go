package core

import (
	"container/list"
	"strings"

	"srdf/internal/plan"
)

// planCache memoizes built plans keyed on (query source, query options)
// for a single epoch. Planning is pure given a snapshot — Build reads
// only the immutable StoreView — so a cached plan is exactly the plan a
// fresh Build would produce until the epoch advances. Any published
// change (trickle refresh, Organize, Compact) bumps the epoch, and the
// first lookup on the new epoch drops every stale entry: invalidation
// needs no hooks in the writers.
//
// The cache is guarded by Store.mu (lookups happen inside
// Store.prepare, which already holds it), so it carries no lock of its
// own. Cached
// plans are shared by concurrent executions; the only mutable plan
// state, bloom handles, publishes atomically.
type planCache struct {
	cap   int
	epoch uint64
	byKey map[string]*list.Element
	lru   *list.List // front = most recent; values are *planCacheEntry

	hits      uint64
	misses    uint64
	evictions uint64
}

type planCacheEntry struct {
	key string
	p   *plan.Plan
}

// PlanCacheStats is a point-in-time view of the prepared-plan cache.
type PlanCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int
	Cap       int
	Epoch     uint64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:   capacity,
		byKey: make(map[string]*list.Element),
		lru:   list.New(),
	}
}

// planCacheKey folds the query source and every plan-affecting option
// into one string. QueryOptions is not comparable (ForceOrder is a
// slice), hence the encoding rather than a struct key.
func planCacheKey(src string, qopts QueryOptions) string {
	var b strings.Builder
	b.Grow(len(src) + 32)
	b.WriteString(src)
	b.WriteByte(0)
	b.WriteByte(byte(qopts.Mode))
	if qopts.ZoneMaps {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
	if qopts.NoBloom {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
	b.WriteByte(0)
	b.WriteString(qopts.ForceAlgo)
	for _, v := range qopts.ForceOrder {
		b.WriteByte(0)
		b.WriteString(v)
	}
	return b.String()
}

// get returns the cached plan for key at epoch, dropping the whole
// cache first if the epoch has advanced.
func (c *planCache) get(epoch uint64, key string) (*plan.Plan, bool) {
	if epoch != c.epoch {
		c.byKey = make(map[string]*list.Element)
		c.lru.Init()
		c.epoch = epoch
	}
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*planCacheEntry).p, true
}

// put inserts a freshly built plan, evicting the least-recently-used
// entry past capacity. get for the same epoch must precede it (get owns
// the epoch rollover).
func (c *planCache) put(epoch uint64, key string, p *plan.Plan) {
	if epoch != c.epoch {
		return
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*planCacheEntry).p = p
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&planCacheEntry{key: key, p: p})
	for c.lru.Len() > c.cap {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.byKey, el.Value.(*planCacheEntry).key)
		c.evictions++
	}
}

func (c *planCache) stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.lru.Len(),
		Cap:       c.cap,
		Epoch:     c.epoch,
	}
}
