package difftest

import (
	"fmt"

	"aggcache/internal/column"
	"aggcache/internal/core"
)

// sideTable is a table of the runner's database that no query reads: a
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
// write or reorganization in between. Each read is compared with the
// uncached oracle at its own snapshot; the raw values' low bits pick the
// query like a check, their higher bits the case (B) and strategy (C).
func (r *Runner) repeat(op Op) error {
	db := r.erp.DB
	q := r.pickQuery(op)
	strat := core.Strategies()[1+(op.C>>8)%3]
	c := repeatCase((op.B >> 8) % int64(numRepeatCases))
	items := int((op.A>>8)%3) + 1
	r.repeats[c]++

	var commit func()
	if c == repeatInFlightInsert {
		tx := db.Txns().Begin()
		idx, err := r.insertIn(tx, items)
		if err != nil {
			tx.Abort()
			return err
		}
		commit = func() {
			tx.Commit()
			r.objs[idx].alive = true
		}
	}
	read := func(which string) ([]core.ExecInfo, error) {
		want, err := r.oracleRows(q)
		if err != nil {
			return nil, err
		}
		infos, err := r.serve(q, strat, want)
		if err != nil {
			return nil, fmt.Errorf("repeat %s, %s read: %w", c, which, err)
		}
		return infos, nil
	}
	if _, err := read("first"); err != nil {
		return err
	}

	switch c {
	case repeatInsert:
		if err := r.apply(Op{Kind: OpInsert, A: op.A >> 8}); err != nil {
			return err
		}
	case repeatUpdateMain:
		if item, ok := r.pickLoadedItem(op.C); ok {
			if err := r.reprice(item, float64(1+op.C%1000)); err != nil {
				return err
			}
		}
	case repeatDeleteMain:
		if idx := r.pickLoadedObject(op.C); idx >= 0 {
			if err := r.deleteObject(idx); err != nil {
				return err
			}
		}
	case repeatAbortedInsert:
		tx := db.Txns().Begin()
		if _, err := r.insertIn(tx, items); err != nil {
			tx.Abort()
			return err
		}
		tx.Abort()
	case repeatInFlightInsert:
		commit()
	case repeatElsewhere:
		tx := db.Txns().Begin()
		if _, err := db.MustTable(sideTable).Insert(tx, []column.Value{column.IntV(op.C)}); err != nil {
			tx.Abort()
			return err
		}
		tx.Commit()
	case repeatMergeInFlight:
		if err := r.apply(Op{Kind: OpBeginMerge, A: op.A >> 8, B: op.C}); err != nil {
			return err
		}
	case repeatMergeSwap:
		// An even A merges Header and Item as a group.
		if err := r.apply(Op{Kind: OpMergeOnline}); err != nil {
			return err
		}
	}

	infos, err := read("second")
	if err != nil {
		return err
	}
	// Nothing the query reads changed, so the first read's answer — kept
	// as each entry's memo unless a merge froze the entries — is served.
	if (c == repeatNothing || c == repeatElsewhere) && !r.mergeActive() {
		for i, info := range infos {
			if !info.MemoHit {
				return fmt.Errorf("repeat %s: second read on manager %d was not a memo hit: %+v", c, i, info)
			}
		}
	}
	return nil
}

// pickLoadedItem resolves a raw random value to an item of a live
// bulk-loaded object. Bulk loading puts those rows in main, where they stay
// unless an earlier update moved a version to the delta. The choice is by
// object history, not by store, so a run with merges disabled makes the
// same logical write.
func (r *Runner) pickLoadedItem(raw int64) (int64, bool) {
	var items []int64
	for _, o := range r.objs[:r.cfg.ERP.Headers] {
		if o.alive {
			items = append(items, o.items...)
		}
	}
	if len(items) == 0 {
		return 0, false
	}
	return items[raw%int64(len(items))], true
}

// pickLoadedObject resolves a raw random value to a live bulk-loaded object
// (see pickLoadedItem), or -1.
func (r *Runner) pickLoadedObject(raw int64) int {
	var live []int
	for i, o := range r.objs[:r.cfg.ERP.Headers] {
		if o.alive {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return -1
	}
	return live[raw%int64(len(live))]
}
