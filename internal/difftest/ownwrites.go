package difftest

import (
	"fmt"
	"slices"

	"aggcache/internal/core"
	"aggcache/internal/table"
	"aggcache/internal/txn"
	"aggcache/internal/workload"
)

// ownWrites opens a writer, updates or deletes one item of a live object
// in it (B; an object's last item is only updated), and reads the query
// through every strategy on every arm of the one-shard cluster at the
// writer's own snapshot, each compared with the uncached oracle at that
// snapshot; a scatter has no snapshot vector, so only that cluster can
// serve the read. It then commits or aborts the writer on every cluster (C)
// and runs a plain check of the same query: an own-writes read may use the
// cache but must leave none of the writer's rows in it.
func (r *Runner) ownWrites(op Op) error {
	idx := r.objs.pickAlive(op.A >> 8)
	if idx < 0 {
		return r.check(op)
	}
	o := r.objs[idx]
	item := o.items[(op.B>>8)%int64(len(o.items))]
	// An object keeps at least one item for later ops to pick.
	del := op.B%2 != 0 && len(o.items) > 1
	w, err := r.begin(o.hid, func(_ *cluster, db *table.DB, tx *txn.Txn) error {
		if del {
			return db.MustTable(workload.TItem).Delete(tx, item)
		}
		return db.MustTable(workload.TItem).Update(tx, item, price(op.C>>8))
	})
	if err != nil {
		return err
	}
	q := r.pickQuery(op)
	snap := w[0].Snapshot()
	want, err := r.oracleRows(q, &snap)
	if err != nil {
		w.abort()
		return err
	}
	for _, strat := range core.Strategies() {
		snap := w[0].Snapshot()
		if _, err := r.serve(q, strat, want, &snap); err != nil {
			w.abort()
			return fmt.Errorf("own-writes read: %w", err)
		}
	}
	if op.C%2 == 0 {
		w.commit()
		if del {
			r.objs[idx].items = slices.DeleteFunc(slices.Clone(o.items), func(id int64) bool { return id == item })
			r.objs[idx].gone = append(r.objs[idx].gone, item)
		}
	} else {
		w.abort()
	}
	if err := r.check(op); err != nil {
		return fmt.Errorf("plain read after own-writes reads: %w", err)
	}
	return nil
}

// checksToOwnWrites turns every second check of ops into an own-writes op
// with the same operands, in place, and returns ops.
func checksToOwnWrites(ops []Op) []Op {
	n := 0
	for i := range ops {
		if ops[i].Kind == OpCheck {
			if n%2 == 0 {
				ops[i].Kind = OpOwnWrites
			}
			n++
		}
	}
	return ops
}
