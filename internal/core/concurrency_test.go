package core

import (
	"sync"
	"testing"

	"aggcache/internal/column"
)

// TestConcurrentReadersAndWriter exercises the documented concurrency
// contract: query execution under the DB read lock while a writer mutates
// and merges under the write lock. Run with -race to validate the locking.
func TestConcurrentReadersAndWriter(t *testing.T) {
	runConcurrentReadersAndWriter(t, Config{})
}

// The same contract with the subjoin worker pool wide open, so -race also
// covers concurrent Execute calls fanning each query out to pool workers.
func TestConcurrentReadersAndWriterParallelWorkers(t *testing.T) {
	runConcurrentReadersAndWriter(t, Config{Workers: 8})
}

func runConcurrentReadersAndWriter(t *testing.T, cfg Config) {
	e := newEnv(t, cfg)
	e.insertObject(t, 2013, 10, 20)
	e.db.MergeTablesOnline(false, "Header", "Item")
	q := joinQuery()
	single := headerOnlyQuery()
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}

	const readers = 4
	const iterations = 60
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			strat := Strategies()[r%4]
			for i := 0; i < iterations; i++ {
				if _, _, err := e.mgr.Execute(q, strat); err != nil {
					errs <- err
					return
				}
				if _, _, err := e.mgr.ExecuteRows(single, CachedNoPruning); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		hdr := e.db.MustTable("Header")
		item := e.db.MustTable("Item")
		for i := 0; i < iterations; i++ {
			// Writers take the exclusive lock per the engine contract.
			e.db.Lock()
			tx := e.db.Txns().Begin()
			hid := e.nextHdr
			e.nextHdr++
			_, err := hdr.Insert(tx, []column.Value{
				column.IntV(hid), column.IntV(2013 + hid%3), column.IntV(int64(tx.ID())),
			})
			if err == nil {
				iid := e.nextItem
				e.nextItem++
				vals := []column.Value{
					column.IntV(iid), column.IntV(hid), column.IntV(hid % 3),
					column.FloatV(float64(hid)), column.IntV(0),
				}
				if err = e.reg.FillChildTIDs("Item", vals); err == nil {
					_, err = item.Insert(tx, vals)
				}
			}
			if err != nil {
				tx.Abort()
				e.db.Unlock()
				errs <- err
				return
			}
			tx.Commit()
			e.db.Unlock()
			if i%20 == 19 {
				if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
					errs <- err
					return
				}
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Final consistency check once quiesced.
	want, _, err := e.mgr.Execute(q, Uncached)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := e.mgr.Execute(q, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatalf("cache inconsistent after concurrent run:\n got %+v\nwant %+v", got.Rows(), want.Rows())
	}
}
