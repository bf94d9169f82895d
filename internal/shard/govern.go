package shard

import (
	"errors"
	"sync"

	"aggcache/internal/core"
)

// Govern attaches one maintenance governor per shard from the template
// config. Each governor weighs only its shard's compensation work against
// that shard's merge price and merges that shard alone — shard maintenance
// never pauses the others.
func (s *Sharded) Govern(cfg core.GovernorConfig) {
	s.govs = s.govs[:0]
	for _, m := range s.mgrs {
		s.govs = append(s.govs, core.NewGovernor(m, cfg))
	}
}

// Governors lists the per-shard governors (nil before Govern).
func (s *Sharded) Governors() []*core.Governor { return append([]*core.Governor(nil), s.govs...) }

// TickAll fans one governor tick per shard concurrently — one goroutine
// per shard, no cross-shard coordination. A tick that decides to merge
// runs that shard's merge while the other shards keep ticking and
// serving: there is no global pause. It reports, in shard order, which
// shards merged, and every shard's error joined.
func (s *Sharded) TickAll() ([]bool, error) {
	merged := make([]bool, len(s.govs))
	errs := make([]error, len(s.govs))
	var wg sync.WaitGroup
	for i, g := range s.govs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			merged[i], errs[i] = g.Tick()
		}()
	}
	wg.Wait()
	return merged, errors.Join(errs...)
}

// StartGovernors launches every shard governor's background loop.
func (s *Sharded) StartGovernors() {
	for _, g := range s.govs {
		g.Start()
	}
}

// StopGovernors halts the background loops.
func (s *Sharded) StopGovernors() {
	for _, g := range s.govs {
		g.Stop()
	}
}
