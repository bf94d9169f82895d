package difftest

import (
	"fmt"
	"slices"

	"aggcache/internal/column"
	"aggcache/internal/core"
	"aggcache/internal/workload"
)

// ownWrites opens a writer, updates or deletes one item of a live object
// in it (B; an object's last item is only updated), and reads the query
// through every strategy on every manager at the writer's own snapshot,
// each compared with the uncached oracle at that snapshot. It then commits
// or aborts the writer (C) and runs a plain check of the same query: an
// own-writes read may use the cache but must leave none of the writer's
// rows in it.
func (r *Runner) ownWrites(op Op) error {
	db := r.erp.DB
	idx := r.objs.pickAlive(op.A >> 8)
	if idx < 0 {
		return r.check(op)
	}
	o := r.objs[idx]
	item := o.items[(op.B>>8)%int64(len(o.items))]
	tx := db.Txns().Begin()
	var err error
	// An object keeps at least one item for later ops to pick.
	del := op.B%2 != 0 && len(o.items) > 1
	if del {
		err = db.MustTable(workload.TItem).Delete(tx, item)
	} else {
		err = db.MustTable(workload.TItem).Update(tx, item,
			map[string]column.Value{"Price": column.FloatV(float64(1 + (op.C>>8)%1000))})
	}
	if err != nil {
		tx.Abort()
		return err
	}
	q := r.pickQuery(op)
	oracle, _, err := r.m1.ExecuteAt(q, tx.Snapshot(), core.Uncached)
	if err != nil {
		tx.Abort()
		return err
	}
	want := renderRows(oracle)
	r.Outputs = append(r.Outputs, want)
	for _, strat := range core.Strategies() {
		snap := tx.Snapshot()
		if _, err := r.serveAt(q, strat, want, &snap); err != nil {
			tx.Abort()
			return fmt.Errorf("own-writes read: %w", err)
		}
	}
	if op.C%2 == 0 {
		tx.Commit()
		if del {
			r.objs[idx].items = slices.DeleteFunc(slices.Clone(o.items), func(id int64) bool { return id == item })
			r.objs[idx].gone = append(r.objs[idx].gone, item)
		}
	} else {
		tx.Abort()
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
