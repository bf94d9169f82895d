package shard_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"aggcache/internal/column"
	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/shard"
	"aggcache/internal/verify"
	"aggcache/internal/workload"
)

// soakIters scales the soak via AGGCACHE_SOAK_ITERS (CI's soak job raises
// it; the default keeps the in-tree -race run fast).
func soakIters(def int) int {
	if s := os.Getenv("AGGCACHE_SOAK_ITERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// shardSoakEnv is one attempt's cluster: a 4-shard ERP with deltas on every
// shard and a 2-worker scatter-gather plane.
type shardSoakEnv struct {
	serp *workload.ShardedERP
	s    *shard.Sharded
	cfg  workload.ERPConfig
}

func newShardSoakEnv(t *testing.T, seed int64) *shardSoakEnv {
	t.Helper()
	cfg := testCfg(seed)
	cfg.Headers = 1200
	serp, err := workload.BuildShardedERP(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := shard.New(serp.Cluster, shard.Config{
		Manager: core.Config{Workers: 2},
		Metrics: obs.NewRegistry(),
	})
	e := &shardSoakEnv{serp: serp, s: s, cfg: cfg}
	// Deltas on every shard: monotonic inserts feed the last shard, and
	// reprices of bulk-loaded items feed all the others.
	if err := serp.InsertBusinessObjects(30); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		e.reprice(int64(1+i*37%int(int64(cfg.Headers)*int64(cfg.ItemsPerHeader))), float64(1+i%500))
	}
	return e
}

// reprice updates one bulk-loaded item's price on its owning shard under
// that shard's writer lock.
func (e *shardSoakEnv) reprice(itemID int64, price float64) {
	hid := (itemID-1)/int64(e.cfg.ItemsPerHeader) + 1
	sh := e.serp.Cluster.Shard(e.serp.Cluster.ShardFor(hid))
	sh.DB.Lock()
	defer sh.DB.Unlock()
	tx := sh.DB.Txns().Begin()
	if err := sh.DB.MustTable(workload.TItem).Update(tx, itemID,
		map[string]column.Value{"Price": column.FloatV(price)}); err != nil {
		tx.Abort()
		return // item deleted/not on this shard: harmless in a soak
	}
	tx.Commit()
}

// insert adds one business object (lands on the last shard) under its
// writer lock.
func (e *shardSoakEnv) insert() error {
	hid := e.serp.NextHeaderID()
	sh := e.serp.Cluster.Shard(e.serp.Cluster.ShardFor(hid))
	sh.DB.Lock()
	defer sh.DB.Unlock()
	return e.serp.InsertBusinessObject(e.cfg.ItemsPerHeader)
}

func p99(lat []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*99/100]
}

// TestShardConcurrentMergeSoak streams cross-shard cached queries while
// every shard runs online merges concurrently (no global pause), with a
// background writer mutating all shards; run with -race. Two invariants:
//
//  1. Correctness: readers never error and per-shard watermarks never move
//     backwards across the soak.
//  2. Tail latency: the reader p99 of every time slice during concurrent
//     merges stays within 2x of a control phase running identical CPU and
//     allocation bursts without the merge machinery — mirroring the
//     BenchmarkMergeInterference methodology at the cluster level. The
//     ratio check retries to ride out scheduler noise; a persistent
//     failure writes a diagnostics bundle for CI to upload.
//
// The tail bound is a ratio of two wall-clock p99s, so it is enforced only
// when AGGCACHE_SOAK_ITERS is set (CI's soak job): the default tier-1 run
// makes one attempt, asserts the deterministic invariants of (1) and logs
// the ratio.
func TestShardConcurrentMergeSoak(t *testing.T) {
	if os.Getenv("AGGCACHE_SOAK_ITERS") == "" {
		ratio := runShardSoakAttempt(t, newShardSoakEnv(t, 101))
		t.Logf("worst slice p99 ratio %.2f (bound enforced only with AGGCACHE_SOAK_ITERS set)", ratio)
		return
	}
	// The 2x tail bound is the production contract, enforced by the
	// uninstrumented run. Under -race every synchronization operation is
	// serialized through the detector, which multiplies time spent inside
	// the merge's brief critical sections far beyond its real cost; the
	// race run keeps a loose bound that still flags pathological stalls
	// (a global pause would block readers for whole merge rounds, an
	// order of magnitude past it) while its real job is the correctness
	// invariants: no reader errors, no watermark regression, no races.
	maxRatio := 2.0
	if raceEnabled {
		maxRatio = 8.0
	}
	const attempts = 3
	var worst float64
	var env *shardSoakEnv
	for a := 1; a <= attempts; a++ {
		e := newShardSoakEnv(t, int64(100+a))
		ratio := runShardSoakAttempt(t, e)
		env = e
		if ratio <= maxRatio {
			return
		}
		worst = ratio
		t.Logf("attempt %d/%d: worst slice p99 ratio %.2f > %.1f, retrying", a, attempts, ratio, maxRatio)
	}
	writeShardSoakBundle(t, env)
	t.Fatalf("per-slice p99 during concurrent shard merges stayed %.2fx control (limit %.1fx) across %d attempts",
		worst, maxRatio, attempts)
}

// runShardSoakAttempt runs one control phase and one merge phase and
// returns the worst per-slice p99 ratio (merge slice vs whole control).
func runShardSoakAttempt(t *testing.T, e *shardSoakEnv) float64 {
	t.Helper()
	q := e.serp.YearRangeQuery(e.cfg.BaseYear, e.cfg.BaseYear+e.cfg.Years-1)
	if _, _, err := e.s.Execute(q, core.CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	wmBefore := e.serp.Cluster.Watermarks()

	samples := soakIters(12) * 100
	const slices = 4

	sample := func(n int) []time.Duration {
		lat := make([]time.Duration, n)
		for i := range lat {
			start := time.Now()
			if _, _, err := e.s.Execute(q, core.CachedFullPruning); err != nil {
				t.Fatalf("reader during soak: %v", err)
			}
			lat[i] = time.Since(start)
		}
		return lat
	}

	// Calibrate: one concurrent all-shard merge round's wall clock sets the
	// control burst; the cadence leaves two bursts of quiet per burst.
	if err := e.insert(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := e.serp.Cluster.MergeTablesOnlineConcurrent(false, workload.THeader, workload.TItem); err != nil {
		t.Fatal(err)
	}
	burst := time.Since(start)
	gap := 2 * burst
	if gap < 5*time.Millisecond {
		gap = 5 * time.Millisecond
	}

	// Background writer, running through both phases so write pressure is
	// part of the baseline.
	stopWriter := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stopWriter:
				return
			default:
			}
			if err := e.insert(); err != nil {
				t.Error(err)
				return
			}
			e.reprice(int64(1+i%400), float64(1+i%300))
			i++
			time.Sleep(time.Millisecond)
		}
	}()

	// Control phase: matched CPU + allocation bursts, no merge locks.
	stopCtl := make(chan struct{})
	doneCtl := make(chan struct{})
	go func() {
		defer close(doneCtl)
		var hold [][]byte
		for {
			select {
			case <-stopCtl:
				return
			default:
			}
			hold = hold[:0]
			for spin := time.Now(); time.Since(spin) < burst; {
				hold = append(hold, make([]byte, 1<<14))
				if len(hold) > 256 {
					hold = hold[:0]
				}
			}
			time.Sleep(gap)
		}
	}()
	ctl := sample(samples)
	close(stopCtl)
	<-doneCtl

	// Merge phase: concurrent per-shard online merges on the same cadence.
	stopMerge := make(chan struct{})
	mergeErr := make(chan error, 1)
	var rounds int64
	go func() {
		for {
			select {
			case <-stopMerge:
				mergeErr <- nil
				return
			default:
			}
			if err := e.serp.Cluster.MergeTablesOnlineConcurrent(false, workload.THeader, workload.TItem); err != nil {
				mergeErr <- err
				return
			}
			rounds++
			time.Sleep(gap)
		}
	}()
	during := sample(samples)
	close(stopMerge)
	if err := <-mergeErr; err != nil {
		t.Fatalf("concurrent shard merge: %v", err)
	}
	close(stopWriter)
	wg.Wait()

	if rounds == 0 {
		t.Fatal("merge phase completed zero merge rounds; soak tested nothing")
	}
	wmAfter := e.serp.Cluster.Watermarks()
	for i := range wmAfter {
		if wmAfter[i] < wmBefore[i] {
			t.Fatalf("shard %d watermark moved backwards: %d -> %d", i, wmBefore[i], wmAfter[i])
		}
	}

	ctlP99 := p99(ctl)
	if ctlP99 <= 0 {
		ctlP99 = time.Microsecond
	}
	worst := 0.0
	per := len(during) / slices
	for sl := 0; sl < slices; sl++ {
		s99 := p99(during[sl*per : (sl+1)*per])
		if r := float64(s99) / float64(ctlP99); r > worst {
			worst = r
		}
	}
	t.Logf("control p99 %v, worst merge-slice p99 ratio %.2f over %d rounds", ctlP99, worst, rounds)
	return worst
}

// writeShardSoakBundle persists a diagnostics bundle (metrics plus the
// cluster layout snapshot) for the CI artifact upload on soak failure.
func writeShardSoakBundle(t *testing.T, e *shardSoakEnv) {
	t.Helper()
	dir := os.Getenv("AGGCACHE_SOAK_BUNDLE_DIR")
	if dir == "" || e == nil {
		return
	}
	b := verify.Collect(verify.BundleSources{
		Meta:     map[string]string{"binary": "go test", "test": "TestShardConcurrentMergeSoak"},
		Registry: e.s.Metrics(),
		Cache:    func() any { return e.s.Snapshot() },
	})
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		t.Logf("bundle marshal: %v", err)
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("bundle dir: %v", err)
		return
	}
	path := filepath.Join(dir, "BUNDLE_shard-soak.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Logf("bundle write: %v", err)
		return
	}
	t.Logf("diagnostics bundle written to %s", path)
}
