package difftest

import (
	"fmt"

	"aggcache/internal/column"
	"aggcache/internal/core"
	"aggcache/internal/shard"
	"aggcache/internal/table"
)

// sideTable is a table of every shard's database that no query reads: a
// write to it must leave every result memo servable.
const sideTable = "Note"

// repeatCase is what an OpRepeat does between its two reads.
type repeatCase int

const (
	repeatNothing        repeatCase = iota
	repeatInsert                    // a committed insert
	repeatUpdateMain                // an update of a bulk-loaded (main) item row
	repeatDeleteMain                // a delete of a bulk-loaded (main) object
	repeatAbortedInsert             // an insert that aborts
	repeatInFlightInsert            // an insert in flight at the first read, committed before the second
	repeatElsewhere                 // a committed insert into sideTable
	repeatMergeInFlight             // an online merge staged and left open
	repeatMergeSwap                 // a completed online merge of Header and Item
	numRepeatCases
)

var repeatCaseNames = [numRepeatCases]string{"nothing", "insert", "update-main",
	"delete-main", "aborted-insert", "in-flight-insert", "write-elsewhere",
	"merge-in-flight", "merge-swap"}

func (c repeatCase) String() string { return repeatCaseNames[c] }

// repeat reads one query twice under one cached strategy with the case's
// write or reorganization in between, on every cluster. Each read is
// compared with the uncached oracle at its own snapshot; the raw values' low
// bits pick the query like a check, their higher bits the case (B) and
// strategy (C).
func (r *Runner) repeat(op Op) error {
	q := r.pickQuery(op)
	strat := core.Strategies()[1+(op.C>>8)%3]
	c := repeatCase((op.B >> 8) % int64(numRepeatCases))
	items := int((op.A>>8)%3) + 1

	var inFlight writer
	var inFlightIdx int
	if c == repeatInFlightInsert {
		var err error
		if inFlight, inFlightIdx, err = r.insertIn(items); err != nil {
			return err
		}
	}
	read := func(which string) ([][]shard.ExecInfo, error) {
		want, err := r.oracleRows(q, nil)
		if err != nil {
			return nil, err
		}
		infos, err := r.serve(q, strat, want, nil)
		if err != nil {
			return nil, fmt.Errorf("repeat %s, %s read: %w", c, which, err)
		}
		return infos, nil
	}
	if _, err := read("first"); err != nil {
		return err
	}

	var err error
	switch c {
	case repeatInsert:
		err = r.apply(Op{Kind: OpInsert, A: op.A >> 8})
	case repeatUpdateMain:
		if hid, item, ok := r.pickLoadedItem(op.C); ok {
			err = r.reprice(hid, item, op.C)
		}
	case repeatDeleteMain:
		if idx := r.pickLoadedObject(op.C); idx >= 0 {
			err = r.deleteObject(&r.objs[idx])
		}
	case repeatAbortedInsert:
		var w writer
		if w, _, err = r.insertIn(items); err == nil {
			w.abort()
		}
	case repeatInFlightInsert:
		inFlight.commit()
		r.objs[inFlightIdx].alive = true
	case repeatElsewhere:
		// A note on every shard, so no dispatched shard's memo is spared
		// the write.
		err = r.eachDB(func(db *table.DB) error {
			tx := db.Txns().Begin()
			if _, err := db.MustTable(sideTable).Insert(tx, []column.Value{column.IntV(op.C)}); err != nil {
				tx.Abort()
				return err
			}
			tx.Commit()
			return nil
		})
	case repeatMergeInFlight:
		err = r.apply(Op{Kind: OpBeginMerge, A: op.A >> 8, B: op.C})
	case repeatMergeSwap:
		// An even A merges Header and Item as a group.
		err = r.apply(Op{Kind: OpMergeOnline})
	}
	if err != nil {
		return err
	}

	infos, err := read("second")
	if err != nil {
		return err
	}
	// Nothing the query reads changed, so the first read's answer — kept
	// as each entry's memo unless a merge froze the entries — is served on
	// every dispatched shard.
	memo := (c == repeatNothing || c == repeatElsewhere) && !r.mergeActive(txTables...)
	for ci, cinfos := range infos {
		r.repeats[ci][c]++
		if !memo {
			continue
		}
		for j, info := range cinfos {
			for i, reason := range info.Reasons {
				if reason == shard.PruneNone && !info.PerShard[i].MemoHit {
					return fmt.Errorf("repeat %s: shards=%d: second read %d on shard %d was not a memo hit: %+v",
						c, shardCounts[ci], j, i, info.PerShard[i])
				}
			}
		}
	}
	return nil
}

// pickLoadedItem resolves a raw random value to an item of a live
// bulk-loaded object, and that object's header id. Bulk loading puts those
// rows in main, where they stay unless an earlier update moved a version to
// the delta. The choice is by object history, not by store, so a run with
// merges disabled makes the same logical write.
func (r *Runner) pickLoadedItem(raw int64) (hid, item int64, ok bool) {
	var hids, items []int64
	for _, o := range r.objs[:r.cfg.ERP.Headers] {
		if o.alive {
			for _, it := range o.items {
				hids, items = append(hids, o.hid), append(items, it)
			}
		}
	}
	if len(items) == 0 {
		return 0, 0, false
	}
	i := raw % int64(len(items))
	return hids[i], items[i], true
}

// pickLoadedObject resolves a raw random value to a live bulk-loaded object
// (see pickLoadedItem), or -1.
func (r *Runner) pickLoadedObject(raw int64) int {
	return r.objs[:r.cfg.ERP.Headers].pickAlive(raw)
}
