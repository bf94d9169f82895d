package verify_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/verify"
	"aggcache/internal/workload"
)

// soakDB is one governed, shadow-verified database of the soak.
type soakDB struct {
	name string
	mgr  *core.Manager
	gov  *core.Governor
	ver  *verify.Verifier
	// write inserts one batch under the database writer lock.
	write func() error
	// batches sizes the front-loaded write burst.
	batches int
}

// newSoakDB wires a manager over the database with a maintenance governor
// on the transactional tables and a shadow verifier sampling 5% of reads.
// Small mains keep the governor's merges cheap even under -race.
func newSoakDB(t *testing.T, name string, mgr *core.Manager, tables []string) *soakDB {
	t.Helper()
	return &soakDB{
		name: name,
		mgr:  mgr,
		gov:  core.NewGovernor(mgr, core.GovernorConfig{Tables: tables, Interval: 25 * time.Millisecond}),
		ver:  verify.Attach(mgr, verify.Config{SampleRate: 0.05, OracleWorkers: -1, ArtifactDir: t.TempDir()}),
	}
}

// TestGovernedSoakShadowVerified runs closed-loop mixed traffic against an
// ERP and a CH-benCHmark database: two readers replay the ERP dashboard
// and the four CH analytics queries under full pruning while a
// front-loaded insert burst, trickling on until each governor has merged,
// makes the readers' delta compensation pay past the merge price, so the
// governors merge online under live reads. Every sampled read is
// re-executed against the uncached oracle under its pinned snapshot. The
// run ends once the writes are done, each governor has merged and each
// verifier has completed a check; the deadline only guards against a hang.
// No latency is asserted.
func TestGovernedSoakShadowVerified(t *testing.T) {
	erpCfg := workload.DefaultERPConfig()
	erpCfg.Headers = 500
	erp, err := workload.BuildERP(erpCfg)
	if err != nil {
		t.Fatal(err)
	}
	chCfg := workload.DefaultCHConfig()
	chCfg.Orders = 300
	ch, err := workload.BuildCH(chCfg)
	if err != nil {
		t.Fatal(err)
	}
	mgrERP := core.NewManager(erp.DB, erp.Reg, core.Config{Metrics: obs.NewRegistry()})
	mgrCH := core.NewManager(ch.DB, ch.Reg, core.Config{Metrics: obs.NewRegistry()})

	const writeBatch = 40
	erpDB := newSoakDB(t, "erp", mgrERP, []string{workload.THeader, workload.TItem})
	erpDB.batches = 10
	erpDB.write = func() error {
		erp.DB.Lock()
		defer erp.DB.Unlock()
		return erp.InsertBusinessObjects(writeBatch)
	}
	chDB := newSoakDB(t, "ch", mgrCH, []string{workload.TOrders, workload.TNewOrder, workload.TOrderline})
	chDB.batches = 15
	chDB.write = func() error {
		ch.DB.Lock()
		defer ch.DB.Unlock()
		for i := 0; i < writeBatch; i++ {
			if err := ch.InsertOrder(); err != nil {
				return err
			}
		}
		return nil
	}
	dbs := []*soakDB{erpDB, chDB}

	year := erpCfg.BaseYear + erpCfg.Years - 1
	lang := erpCfg.Languages[0]
	type read struct {
		mgr *core.Manager
		q   *query.Query
	}
	mix := []read{
		{mgrERP, erp.ProfitQuery(year, lang)},
		{mgrERP, erp.ProfitQuery(erpCfg.BaseYear, lang)},
		{mgrERP, erp.YearRangeQuery(erpCfg.BaseYear, year)},
		{mgrERP, erp.HeaderCountQuery()},
		{mgrERP, erp.ItemRevenueQuery()},
		{mgrCH, ch.Q3()},
		{mgrCH, ch.Q5()},
		{mgrCH, ch.Q9()},
		{mgrCH, ch.Q10()},
	}
	// The readers share these Query objects; warm their memoized
	// fingerprint and shape before any goroutine starts.
	for _, r := range mix {
		r.q.Fingerprint()
		r.q.Shape()
	}

	for _, d := range dbs {
		d.gov.Start()
	}
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stopped() {
				r := mix[rng.Intn(len(mix))]
				if _, _, err := r.mgr.Execute(r.q, core.CachedFullPruning); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}(int64(c) + 1)
	}
	var writers sync.WaitGroup
	for _, d := range dbs {
		writers.Add(1)
		go func(d *soakDB) {
			defer writers.Done()
			// Past the burst the writer trickles batches until its
			// governor has merged: reads pay for a merge only while
			// writes keep them missing the result memo.
			for i := 0; !stopped() && (i < d.batches || d.gov.Snapshot().Merges == 0); i++ {
				if err := d.write(); err != nil {
					t.Errorf("%s writer: %v", d.name, err)
					return
				}
				pause := 200 * time.Microsecond
				if i >= d.batches {
					pause = 5 * time.Millisecond
				}
				time.Sleep(pause)
			}
		}(d)
	}

	burstDone := make(chan struct{})
	go func() {
		writers.Wait()
		close(burstDone)
	}()
	settled := func() bool {
		select {
		case <-burstDone:
		default:
			return false
		}
		for _, d := range dbs {
			if d.gov.Snapshot().Merges == 0 || d.ver.Status().Checks == 0 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(time.Minute)
	for !settled() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	<-burstDone

	for _, d := range dbs {
		d.mgr.SetShadow(nil)
		d.ver.Stop()
		d.gov.Stop()
		gs, st := d.gov.Snapshot(), d.ver.Status()
		merges := gs.Merges
		t.Logf("%s: %d merges (work %d, price %d, last %s), %d shadow checks, %d dropped",
			d.name, merges, gs.Work, gs.Price, gs.LastReason, st.Checks, st.Dropped)
		if merges < 1 {
			t.Errorf("%s: governor never merged", d.name)
		}
		if st.Checks == 0 {
			t.Errorf("%s: shadow verifier completed no checks", d.name)
		}
		if st.Divergences != 0 {
			t.Errorf("%s: %d shadow-verification divergence(s), last %+v", d.name, st.Divergences, st.LastDivergence)
		}
	}
}
