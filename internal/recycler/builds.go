package recycler

import (
	"slices"
	"sort"
	"strconv"

	"aggcache/internal/column"
	"aggcache/internal/query"
	"aggcache/internal/table"
)

// buildEntry is one cached store-side join build. Unlike partials,
// builds carry no watermark: validity is re-established per acquisition by
// comparing the requesting scan's candidate rows against the cached ones
// (column values at fixed rows are immutable, so equal rows imply an
// identical table).
type buildEntry struct {
	key   string
	table string
	store *table.Store
	inv   uint64
	bt    *query.BuildTable
	hits  int64
	seq   int64
	size  uint64
}

// AcquireBuild implements query.BuildSource: serve the cached build table
// for (query, edge, store) when it indexes exactly rows, else build, admit,
// and return a fresh one. Called from pool workers, so the pool is guarded
// by its own mutex and — because admission order depends on scheduling —
// keeps no ledger records and no Stats: a cache decision here can never
// change results, only whether gather+build work is skipped.
func (c *Cache) AcquireBuild(qfp string, edge int, ref query.StoreRef, store *table.Store, col column.Reader, rows []int32) *query.BuildTable {
	c.bmu.Lock()
	c.bKeyBuf = appendBuildKey(c.bKeyBuf, qfp, edge, ref)
	if e := c.builds[string(c.bKeyBuf)]; e != nil &&
		e.store == store && store.Invalidations() == e.inv &&
		slices.Equal(e.bt.Rows(), rows) {
		e.hits++
		c.bHits++
		bt := e.bt
		c.bmu.Unlock()
		c.cBuildHits.Inc()
		return bt
	}
	key := string(c.bKeyBuf)
	c.bmu.Unlock()

	// Build outside the lock — gather+build is the expensive part and
	// other workers' acquisitions must not serialize behind it.
	bt := query.NewBuildTable(col, rows)

	c.bmu.Lock()
	if old := c.builds[key]; old != nil {
		c.buildBytes -= old.size
	}
	c.buildSeq++
	e := &buildEntry{
		key: key, table: ref.Table, store: store, inv: store.Invalidations(),
		bt: bt, seq: c.buildSeq, size: bt.MemBytes() + uint64(len(key)),
	}
	c.builds[key] = e
	c.buildBytes += e.size
	c.bMisses++
	if c.cfg.BuildCapacityBytes != 0 && c.buildBytes > c.cfg.BuildCapacityBytes {
		c.evictBuildsLocked()
	}
	c.gBuildBytes.Set(int64(c.buildBytes))
	c.gBuildEntries.Set(int64(len(c.builds)))
	c.bmu.Unlock()
	c.cBuildMisses.Inc()
	return bt
}

// evictBuildsLocked drops cold builds (fewest hits, oldest first) until the
// pool fits its budget.
func (c *Cache) evictBuildsLocked() {
	victims := make([]*buildEntry, 0, len(c.builds))
	for _, e := range c.builds {
		victims = append(victims, e)
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].hits != victims[j].hits {
			return victims[i].hits < victims[j].hits
		}
		return victims[i].seq < victims[j].seq
	})
	for _, e := range victims {
		if c.buildBytes <= c.cfg.BuildCapacityBytes {
			break
		}
		delete(c.builds, e.key)
		c.buildBytes -= e.size
		c.bEvictions++
	}
}

func appendBuildKey(buf []byte, qfp string, edge int, ref query.StoreRef) []byte {
	buf = append(buf[:0], qfp...)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(edge), 10)
	buf = append(buf, '|')
	buf = append(buf, ref.Table...)
	buf = append(buf, '[')
	buf = strconv.AppendInt(buf, int64(ref.Part), 10)
	buf = append(buf, ']')
	switch {
	case ref.Main:
		buf = append(buf, 'm')
	case ref.D2:
		buf = append(buf, '2')
	default:
		buf = append(buf, 'd')
	}
	return buf
}
