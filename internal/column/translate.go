package column

import (
	"sync"
	"sync/atomic"
)

// colSeq numbers columns as they are created. A translation is cached under
// the other column's number rather than its pointer, so the cache never
// keeps a column replaced by a merge alive.
var colSeq atomic.Uint64

// xlCacheSize bounds the translations one column caches. A join column
// meets one partner store per partition of the table it references; an
// entry for a store replaced by a merge ages out as its successor's
// arrives.
const xlCacheSize = 4

// xlCache is the translation cache every column carries. It lives in the
// column, so it dies with it at the merge swap; the oldest entry is
// replaced first.
type xlCache struct {
	seq  uint64 // this column's colSeq number
	mu   sync.Mutex
	ents [xlCacheSize]xlEntry
	next int
}

// xlEntry is one cached translation: xl covers the probe dictionary's first
// len(xl) entries, looked up against the first built entries of the build
// dictionary numbered seq.
type xlEntry struct {
	seq   uint64
	built int
	xl    []int32
}

func newXLCache() xlCache { return xlCache{seq: colSeq.Add(1)} }

func (c *xlCache) cache() *xlCache { return c }

// Lookuper is the value → ID direction of a column's dictionary: Lookup
// returns the value ID of v, with ok false when the dictionary lacks v. v
// must be of the column's kind. Every column kind implements it — main
// columns by binary search of the sorted dictionary, delta columns through
// their hash index. A delta's dictionary grows with inserts, so it is read
// under the same database read lock as Value.
type Lookuper interface {
	Lookup(v Value) (id uint32, ok bool)
}

// Translation returns the value-ID translation from probe's dictionary into
// build's, two columns of one kind: xl[p] is 1 + the ID in build of probe's
// p-th dictionary value, 0 when build lacks it. The vector is cached on
// probe under build's number and is shared: callers must not modify it.
//
// Dictionaries are append-only — an ID keeps its value for the column's
// life — so a cached vector is extended, never recomputed, as either
// dictionary grows: new probe entries are looked up in build, new build
// entries in probe. A delta's dictionary grows only under the database
// write lock, so a vector returned under the read lock queries hold is
// complete and unchanging while that lock is held.
func Translation(probe, build Reader) []int32 {
	c := probe.(interface{ cache() *xlCache }).cache()
	bseq := build.(interface{ cache() *xlCache }).cache().seq
	c.mu.Lock()
	defer c.mu.Unlock()
	var e *xlEntry
	for i := range c.ents {
		if c.ents[i].seq == bseq {
			e = &c.ents[i]
			break
		}
	}
	if e == nil {
		e = &c.ents[c.next]
		*e = xlEntry{seq: bseq}
		c.next = (c.next + 1) % xlCacheSize
	}
	np, nb := probe.DictLen(), build.DictLen()
	if len(e.xl) == np && e.built == nb {
		return e.xl
	}
	if len(e.xl) > 0 {
		pl := probe.(Lookuper)
		for b := e.built; b < nb; b++ {
			if p, ok := pl.Lookup(build.DictValue(uint32(b))); ok && int(p) < len(e.xl) {
				e.xl[p] = int32(b) + 1
			}
		}
	}
	bl := build.(Lookuper)
	for p := len(e.xl); p < np; p++ {
		var b1 int32
		if b, ok := bl.Lookup(probe.DictValue(uint32(p))); ok {
			b1 = int32(b) + 1
		}
		e.xl = append(e.xl, b1)
	}
	e.built = nb
	return e.xl
}
