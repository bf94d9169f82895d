package recycler

import "sort"

// Debug is the JSON payload served by /debug/recycler and rendered by the
// aggsql \recycler command.
type Debug struct {
	CapacityBytes      uint64 `json:"capacity_bytes"`
	Bytes              uint64 `json:"bytes"`
	Entries            int    `json:"entries"`
	Hits               int64  `json:"hits"`
	Misses             int64  `json:"misses"`
	Topups             int64  `json:"topups"`
	Bypasses           int64  `json:"bypasses"`
	Evictions          int64  `json:"evictions"`
	Invalidations      int64  `json:"invalidations"`
	BuildCapacityBytes uint64 `json:"build_capacity_bytes"`
	BuildBytes         uint64 `json:"build_bytes"`
	BuildEntries       int    `json:"build_entries"`
	BuildHits          int64  `json:"build_hits"`
	BuildMisses        int64  `json:"build_misses"`
	BuildEvictions     int64  `json:"build_evictions"`

	Partials []EntryDebug `json:"partials"`
	Builds   []BuildDebug `json:"builds"`
}

// EntryDebug describes one cached subjoin partial.
type EntryDebug struct {
	Key      string  `json:"key"`
	SnapHigh uint64  `json:"snap_high"`
	Groups   int     `json:"groups"`
	Hits     int64   `json:"hits"`
	Topups   int64   `json:"topups"`
	CostRows int64   `json:"cost_rows"`
	Bytes    uint64  `json:"bytes"`
	Profit   float64 `json:"profit"`
}

// BuildDebug describes one cached store-side join build.
type BuildDebug struct {
	Key   string `json:"key"`
	Rows  int    `json:"rows"`
	Hits  int64  `json:"hits"`
	Bytes uint64 `json:"bytes"`
}

// Debug snapshots the cache for the debug surfaces: partials sorted by
// profit (descending, key tiebreak), builds by key.
func (c *Cache) Debug() Debug {
	c.mu.Lock()
	d := Debug{
		CapacityBytes:      c.cfg.CapacityBytes,
		Bytes:              c.bytes,
		Entries:            len(c.entries),
		Hits:               c.hits,
		Misses:             c.misses,
		Topups:             c.topups,
		Bypasses:           c.bypasses,
		Evictions:          c.evictions,
		Invalidations:      c.invalidations,
		BuildCapacityBytes: c.cfg.BuildCapacityBytes,
		Partials:           make([]EntryDebug, 0, len(c.entries)),
	}
	for _, e := range c.entries {
		d.Partials = append(d.Partials, EntryDebug{
			Key: e.key, SnapHigh: uint64(e.snapHigh), Groups: e.value.Groups(),
			Hits: e.hits, Topups: e.topups, CostRows: e.costRows,
			Bytes: e.size, Profit: e.profit(),
		})
	}
	c.mu.Unlock()
	sort.Slice(d.Partials, func(i, j int) bool {
		if d.Partials[i].Profit != d.Partials[j].Profit {
			return d.Partials[i].Profit > d.Partials[j].Profit
		}
		return d.Partials[i].Key < d.Partials[j].Key
	})

	c.bmu.Lock()
	d.BuildBytes = c.buildBytes
	d.BuildEntries = len(c.builds)
	d.BuildHits = c.bHits
	d.BuildMisses = c.bMisses
	d.BuildEvictions = c.bEvictions
	d.Builds = make([]BuildDebug, 0, len(c.builds))
	for _, e := range c.builds {
		d.Builds = append(d.Builds, BuildDebug{
			Key: e.key, Rows: len(e.bt.Rows()), Hits: e.hits, Bytes: e.size,
		})
	}
	c.bmu.Unlock()
	sort.Slice(d.Builds, func(i, j int) bool { return d.Builds[i].Key < d.Builds[j].Key })
	return d
}
