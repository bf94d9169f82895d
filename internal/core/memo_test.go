package core

import (
	"fmt"
	"strings"
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/obs"
	"aggcache/internal/query"
	"aggcache/internal/txn"
)

// rendered is the byte-level rendering of a served table in slot order — what
// a memo hit must reproduce exactly.
func rendered(a *query.AggTable) string { return fmt.Sprintf("%+v", a.UnsortedRows()) }

// memoEnv is the join environment with settled mains and a pending delta
// object, so a full-path hit runs both main and delta compensation.
func memoEnv(t *testing.T, cfg Config) *env {
	t.Helper()
	e := newEnv(t, cfg)
	e.insertObject(t, 2013, 10, 20, 30)
	e.insertObject(t, 2014, 5)
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	e.insertObject(t, 2014, 7, 9)
	return e
}

// TestMemoServesUnchangedAnswer: with no write in between, a repeat read is
// a memo hit — still a cache hit, accounted as one, with no subjoin run —
// and returns exactly the bytes the full path computed. ExplainAnalyze
// never serves the memo: it shows the compensation a hit runs.
func TestMemoServesUnchangedAnswer(t *testing.T) {
	led := obs.NewLedger(0)
	shapes := obs.NewShapes(0, 0)
	rec := obs.NewRecorder(obs.RecorderConfig{Capacity: 8})
	e := memoEnv(t, Config{Ledger: led, Shapes: shapes, Recorder: rec})
	q := joinQuery()
	first, info, err := e.mgr.Execute(q, CachedFullPruning)
	if err != nil || info.MemoHit {
		t.Fatalf("first execution: info %+v, err %v", info, err)
	}
	second, info, err := e.mgr.Execute(q, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit || !info.MemoHit {
		t.Fatalf("repeat read: info %+v, want a memo hit", info)
	}
	if info.Stats != (query.Stats{}) || info.DeltaComp != 0 || info.DeltaTuples != 0 {
		t.Fatalf("memo hit ran compensation: %+v", info)
	}
	if got, want := rendered(second), rendered(first); got != want {
		t.Fatalf("memo hit differs from the full path:\n got %s\nwant %s", got, want)
	}
	tr, ok := rec.Get(2)
	if !ok {
		t.Fatal("memo hit trace not retained")
	}
	var sb strings.Builder
	tr.Root.Render(&sb)
	if out := sb.String(); !strings.Contains(out, "verdict=memo-hit") || strings.Contains(out, "delta-compensation") {
		t.Fatalf("memo hit trace:\n%s", out)
	}
	// The served table is the caller's: mutating it leaves the memo intact.
	second.Merge(second)
	third, _, err := e.mgr.Execute(q, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rendered(third), rendered(first); got != want {
		t.Fatalf("mutating a served memo changed the memo:\n got %s\nwant %s", got, want)
	}
	m, _ := e.mgr.EntryMetrics(q)
	if m.Hits != 2 || m.LastAccess.IsZero() {
		t.Fatalf("memo hits not accounted: %+v", m)
	}
	if p, ok := shapes.Profile(q.Shape()); !ok || p.Hits != 2 || p.MemoHits != 2 {
		t.Fatalf("shape profile = %+v", p)
	}
	memoDecisions := 0
	for _, d := range led.Snapshot() {
		if d.Kind == obs.DecisionHit && d.Reason == "memo" {
			memoDecisions++
		}
	}
	if memoDecisions != 2 {
		t.Fatalf("%d memo hit decisions in the ledger, want 2", memoDecisions)
	}

	res, info, sp, err := e.mgr.ExplainAnalyze(q, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit || info.MemoHit || info.Stats.Subjoins == 0 {
		t.Fatalf("ExplainAnalyze: info %+v, want a compensated hit", info)
	}
	if got, want := rendered(res), rendered(first); got != want {
		t.Fatalf("ExplainAnalyze differs from the memo:\n got %s\nwant %s", got, want)
	}
	sb.Reset()
	sp.Render(&sb)
	if out := sb.String(); !strings.Contains(out, "verdict=hit") || !strings.Contains(out, "delta-compensation") {
		t.Fatalf("ExplainAnalyze trace:\n%s", out)
	}
	if _, info, err := e.mgr.Execute(q, CachedFullPruning); err != nil || !info.MemoHit {
		t.Fatalf("read after ExplainAnalyze: info %+v, err %v; want a memo hit", info, err)
	}
}

// TestMemoInvalidation walks the writes and reorganizations that must send
// a repeat read back through compensation, and the ones that must not; every
// read is checked against the uncached oracle.
func TestMemoInvalidation(t *testing.T) {
	e := memoEnv(t, Config{})
	q := joinQuery()
	read := func(name string, wantMemo bool) {
		t.Helper()
		if info := assertMatchesUncached(t, e, q, CachedFullPruning); info.MemoHit != wantMemo {
			t.Fatalf("%s: memo hit = %v, want %v (%+v)", name, info.MemoHit, wantMemo, info)
		}
	}
	read("cold", false)
	read("repeat", true)

	e.insertObject(t, 2013, 100)
	read("after a committed insert", false)
	read("repeat", true)

	tx := e.db.Txns().Begin()
	if err := e.db.MustTable("Item").Update(tx, 1, map[string]column.Value{"Price": column.FloatV(99)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	read("after a main-row update", false)
	read("repeat", true)

	tx = e.db.Txns().Begin()
	if _, err := e.db.MustTable("Header").Insert(tx, []column.Value{
		column.IntV(1000), column.IntV(2013), column.IntV(int64(tx.ID())),
	}); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	read("after an aborted insert", false)
	read("repeat", true)

	// A write to a table a query does not read leaves its memo valid: the
	// join reads ProductCategory, the header-only query reads neither it
	// nor Item.
	tx = e.db.Txns().Begin()
	if _, err := e.db.MustTable("ProductCategory").Insert(tx, []column.Value{column.IntV(7), column.StrV("Books")}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	info := assertMatchesUncached(t, e, headerOnlyQuery(), CachedFullPruning)
	if info.MemoHit {
		t.Fatal("cold header-only read was a memo hit")
	}
	read("after a ProductCategory insert", false)
	tx = e.db.Txns().Begin()
	if err := e.db.MustTable("Item").Update(tx, 2, map[string]column.Value{"Price": column.FloatV(3)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if info := assertMatchesUncached(t, e, headerOnlyQuery(), CachedFullPruning); !info.MemoHit {
		t.Fatalf("header-only read after an Item write: %+v, want a memo hit", info)
	}

	// An online merge in flight freezes the entry; the swap folds into it.
	read("before merge", false)
	read("repeat", true)
	om, err := e.db.StartOnlineMerge("Item", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := om.Build(); err != nil {
		t.Fatal(err)
	}
	read("merge in flight", false)
	read("merge in flight, repeat", false)
	if _, err := om.Finish(); err != nil {
		t.Fatal(err)
	}
	read("after the swap", false)
	read("repeat", true)

	// Clear and a strategy switch both recompute.
	e.mgr.Clear()
	read("after Clear", false)
	if info := assertMatchesUncached(t, e, q, CachedNoPruning); info.MemoHit {
		t.Fatal("memo served under another strategy")
	}
}

// TestMemoInFlightInsert: an insert in flight at the first read is invisible
// to it; once it commits, the second read must see it, although the physical
// row count is the same for both reads.
func TestMemoInFlightInsert(t *testing.T) {
	e := memoEnv(t, Config{})
	q := joinQuery()
	assertMatchesUncached(t, e, q, CachedFullPruning)
	tx := e.db.Txns().Begin()
	hid := int64(500)
	if _, err := e.db.MustTable("Header").Insert(tx, []column.Value{
		column.IntV(hid), column.IntV(2014), column.IntV(int64(tx.ID())),
	}); err != nil {
		t.Fatal(err)
	}
	vals := []column.Value{column.IntV(500), column.IntV(hid), column.IntV(1), column.FloatV(40), column.IntV(0)}
	if err := e.reg.FillChildTIDs("Item", vals); err != nil {
		t.Fatal(err)
	}
	if _, err := e.db.MustTable("Item").Insert(tx, vals); err != nil {
		t.Fatal(err)
	}
	if info := assertMatchesUncached(t, e, q, CachedFullPruning); info.MemoHit {
		t.Fatal("memo served while a write to the query's tables is in flight")
	}
	tx.Commit()
	if info := assertMatchesUncached(t, e, q, CachedFullPruning); info.MemoHit {
		t.Fatal("memo served after an in-flight insert committed")
	}
}

// TestMemoInFlightInvalidation: a main row deleted by a transaction still
// in flight at the first read must disappear from the second read once it
// commits.
func TestMemoInFlightInvalidation(t *testing.T) {
	e := memoEnv(t, Config{})
	q := joinQuery()
	assertMatchesUncached(t, e, q, CachedFullPruning)
	tx := e.db.Txns().Begin()
	if err := e.db.MustTable("Item").Delete(tx, 1); err != nil {
		t.Fatal(err)
	}
	assertMatchesUncached(t, e, q, CachedFullPruning)
	tx.Commit()
	assertMatchesUncached(t, e, q, CachedFullPruning)
	assertMatchesUncached(t, e, q, CachedFullPruning)
}

// TestMemoOwnWritesSnapshot: a snapshot that sees its transaction's own
// writes is never served from, nor stored as, the memo.
func TestMemoOwnWritesSnapshot(t *testing.T) {
	e := memoEnv(t, Config{})
	q := joinQuery()
	assertMatchesUncached(t, e, q, CachedFullPruning)
	tx := e.db.Txns().Begin()
	// No write yet: the memo is still exact, but the snapshot is an
	// own-writes token.
	if _, info, err := e.mgr.ExecuteAt(q, tx.Snapshot(), CachedFullPruning); err != nil || info.MemoHit || !info.CacheHit {
		t.Fatalf("own-writes snapshot: info %+v, err %v; want a hit off the memo", info, err)
	}
	if _, err := e.db.MustTable("Header").Insert(tx, []column.Value{
		column.IntV(600), column.IntV(2013), column.IntV(int64(tx.ID())),
	}); err != nil {
		t.Fatal(err)
	}
	vals := []column.Value{column.IntV(600), column.IntV(600), column.IntV(2), column.FloatV(11), column.IntV(0)}
	if err := e.reg.FillChildTIDs("Item", vals); err != nil {
		t.Fatal(err)
	}
	if _, err := e.db.MustTable("Item").Insert(tx, vals); err != nil {
		t.Fatal(err)
	}
	want, _, err := e.mgr.ExecuteAt(q, tx.Snapshot(), Uncached)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, info, err := e.mgr.ExecuteAt(q, tx.Snapshot(), CachedFullPruning)
		if err != nil {
			t.Fatal(err)
		}
		if info.MemoHit {
			t.Fatalf("read %d of an own-writes snapshot was a memo hit", i)
		}
		if !want.Equal(got) {
			t.Fatalf("own-writes read %d:\n got %+v\nwant %+v", i, got.Rows(), want.Rows())
		}
	}
	// The own-writes reads stored nothing: a plain read still sees only
	// committed rows.
	if info := assertMatchesUncached(t, e, q, CachedFullPruning); info.MemoHit {
		t.Fatal("plain read served while the own-writes transaction is open")
	}
	tx.Commit()
	assertMatchesUncached(t, e, q, CachedFullPruning)
}

// ownWritesDelete opens a transaction that deletes main Item row 1, the
// Food item of 2013 priced 10, and checks an own-writes read of q under
// CachedFullPruning against the uncached answer at the same snapshot.
func ownWritesDelete(t *testing.T, e *env, q *query.Query) (*txn.Txn, ExecInfo) {
	t.Helper()
	tx := e.db.Txns().Begin()
	if err := e.db.MustTable("Item").Delete(tx, 1); err != nil {
		t.Fatal(err)
	}
	want, _, err := e.mgr.ExecuteAt(q, tx.Snapshot(), Uncached)
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := e.mgr.ExecuteAt(q, tx.Snapshot(), CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatalf("own-writes read:\n got %+v\nwant %+v", got.Rows(), want.Rows())
	}
	return tx, info
}

// TestOwnWritesHitLeavesEntry: a hit under an own-writes snapshot that
// deleted a main row compensates the served answer only. The shared entry
// keeps the row, for plain reads while the writer is open and after it
// aborts.
func TestOwnWritesHitLeavesEntry(t *testing.T) {
	e := memoEnv(t, Config{})
	q := joinQuery()
	assertMatchesUncached(t, e, q, CachedFullPruning)
	tx, info := ownWritesDelete(t, e, q)
	if !info.CacheHit || info.MainCompensated != 1 {
		t.Fatalf("own-writes read: %+v, want a hit compensating one row", info)
	}
	assertMatchesUncached(t, e, q, CachedFullPruning)
	tx.Abort()
	assertMatchesUncached(t, e, q, CachedFullPruning)
	assertMatchesUncached(t, e, q, CachedFullPruning)
}

// TestOwnWritesMissAdmitsNothing: a miss under an own-writes snapshot that
// deleted a main row is answered without building an entry, so the first
// plain read builds one from committed rows only.
func TestOwnWritesMissAdmitsNothing(t *testing.T) {
	e := memoEnv(t, Config{})
	q := joinQuery()
	tx, info := ownWritesDelete(t, e, q)
	if info.Admitted || !info.Bypassed || e.mgr.Len() != 0 {
		t.Fatalf("own-writes miss: %+v with %d entries, want a bypass admitting nothing", info, e.mgr.Len())
	}
	if info := assertMatchesUncached(t, e, q, CachedFullPruning); !info.Admitted {
		t.Fatalf("plain read: %+v, want an admission", info)
	}
	tx.Abort()
	assertMatchesUncached(t, e, q, CachedFullPruning)
	assertMatchesUncached(t, e, q, CachedFullPruning)
}

// TestMemoOlderSnapshot: a snapshot older than the memo's watermark is
// computed in full, and its answer does not move the memo backwards.
func TestMemoOlderSnapshot(t *testing.T) {
	e := memoEnv(t, Config{})
	q := joinQuery()
	assertMatchesUncached(t, e, q, CachedNoPruning)
	old, release := e.mgr.PinSnapshot()
	defer release()
	// Advance the watermark with a write the query does not read, then
	// store a memo above old under another strategy.
	tx := e.db.Txns().Begin()
	if _, err := e.db.MustTable("ProductCategory").Insert(tx, []column.Value{column.IntV(9), column.StrV("Garden")}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	assertMatchesUncached(t, e, q, CachedFullPruning)
	ent, _ := e.mgr.Entry(q)
	if ent.memoHigh <= old.High {
		t.Fatalf("memo watermark %d not above the old snapshot %d", ent.memoHigh, old.High)
	}
	high := ent.memoHigh
	want, _, err := e.mgr.ExecuteAt(q, old, Uncached)
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := e.mgr.ExecuteAt(q, old, CachedFullPruning)
	if err != nil {
		t.Fatal(err)
	}
	if info.MemoHit || info.Bypassed || !want.Equal(got) {
		t.Fatalf("old snapshot: info %+v\n got %+v\nwant %+v", info, got.Rows(), want.Rows())
	}
	if ent.memoHigh != high {
		t.Fatalf("memo watermark moved from %d to %d", high, ent.memoHigh)
	}
	if info := assertMatchesUncached(t, e, q, CachedFullPruning); !info.MemoHit {
		t.Fatalf("current read after the old one: %+v, want a memo hit", info)
	}
}
