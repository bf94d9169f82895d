package core

import (
	"sync"
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/query"
)

// oracleOf is the uncached answer to q at the current snapshot.
func oracleOf(t testing.TB, e *env, q *query.Query) *query.AggTable {
	t.Helper()
	snap, release := e.mgr.PinSnapshot()
	defer release()
	want, _, err := e.mgr.Oracle(q, snap, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// mutateServed is what a caller may do with a table it was served: it owns
// it, so it may corrupt a group or fold more groups in.
func mutateServed(a *query.AggTable, seed int64) {
	a.Perturb(seed)
	extra := query.NewAggTable(a.Specs())
	extra.Add([]column.Value{column.StrV("Extra")}, []column.Value{column.FloatV(1), {}})
	a.Merge(extra)
}

// TestServedResultMutationIsolated: a served table shares its arrays with
// the entry's memo (and a computed answer with the memo it becomes), so a
// caller mutating it must pay the copy and never reach the memo or the
// entry. The next read is still a memo hit with the oracle's answer, and
// after a write the full path — which starts from the entry's value —
// still matches the oracle.
func TestServedResultMutationIsolated(t *testing.T) {
	e := memoEnv(t, Config{})
	q := joinQuery()
	want := oracleOf(t, e, q)

	first, info, err := e.mgr.Execute(q, CachedFullPruning)
	if err != nil || info.MemoHit || !want.Equal(first) {
		t.Fatalf("first execution: info %+v, err %v", info, err)
	}
	exact := rendered(first)
	mutateServed(first, 1) // the computed answer: the memo is a clone of it
	for i := int64(2); i < 5; i++ {
		got, info, err := e.mgr.Execute(q, CachedFullPruning)
		if err != nil || !info.MemoHit {
			t.Fatalf("read %d: info %+v, err %v; want a memo hit", i, info, err)
		}
		if rendered(got) != exact || !want.Equal(got) {
			t.Fatalf("read %d after mutating a served table: got %+v, want %+v", i, got.Rows(), want.Rows())
		}
		mutateServed(got, i) // a memo-hit answer: a clone of the memo
	}

	e.insertObject(t, 2013, 4)
	want = oracleOf(t, e, q)
	got, info, err := e.mgr.Execute(q, CachedFullPruning)
	if err != nil || info.MemoHit || !info.CacheHit {
		t.Fatalf("read after a write: info %+v, err %v; want a full-path cache hit", info, err)
	}
	if !want.Equal(got) {
		t.Fatalf("entry reached by a served table's mutation: got %+v, want %+v", got.Rows(), want.Rows())
	}
}

// TestServedResultMutationRace is the concurrent form (run it under -race):
// readers mutate every table they are served while a writer commits and
// online merges fold the entry. Once quiesced, a memo hit and the full path
// both match the oracle.
func TestServedResultMutationRace(t *testing.T) {
	e := memoEnv(t, Config{})
	q := joinQuery()
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	const readers, iterations = 4, 60
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range iterations {
				res, _, err := e.mgr.Execute(q, CachedFullPruning)
				if err != nil {
					errs <- err
					return
				}
				mutateServed(res, int64(r*iterations+i))
			}
		}()
	}
	// The writer runs on the test goroutine.
	for i := range iterations / 3 {
		e.db.Lock()
		e.insertObject(t, 2013+int64(i%2), float64(i))
		e.db.Unlock()
		if i%5 == 4 {
			if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	e.insertObject(t, 2014, 3)
	want := oracleOf(t, e, q)
	for i, wantMemo := range []bool{false, true} {
		got, info, err := e.mgr.Execute(q, CachedFullPruning)
		if err != nil || info.MemoHit != wantMemo {
			t.Fatalf("quiesced read %d: info %+v, err %v; want memo hit %v", i, info, err, wantMemo)
		}
		if !want.Equal(got) {
			t.Fatalf("quiesced read %d: got %+v, want %+v", i, got.Rows(), want.Rows())
		}
	}
}
