// Package workload provides the data generators and query sets of the
// paper's evaluation (Sec. 6): a synthetic financial-accounting ERP workload
// following the header/item/dimension schema-design patterns of Sec. 3, and
// a scaled CH-benCHmark (TPC-C-derived) database with the four analytical
// queries of Fig. 9.
package workload

import (
	"fmt"

	"aggcache/internal/column"
	"aggcache/internal/md"
	"aggcache/internal/table"
	"aggcache/internal/txn"
)

// ERPConfig sizes the synthetic ERP database. The paper's production
// dataset (35 M headers, 330 M items, <2000 categories) is scaled down;
// ratios — items per header, dimension size, temporal insert locality — are
// preserved.
type ERPConfig struct {
	// Headers is the number of header rows bulk-loaded into main storage.
	Headers int
	// ItemsPerHeader is the number of item rows per business object
	// (paper ratio ~9.4:1).
	ItemsPerHeader int
	// Categories is the dimension cardinality.
	Categories int
	// Languages are the text variants per category; the first is the one
	// the profit query filters on.
	Languages []string
	// Years is the fiscal-year spread; headers are loaded oldest-first so
	// insertion order correlates with time, as in a real system.
	Years int
	// BaseYear is the first fiscal year.
	BaseYear int
	// ColdShare, when positive, creates Header and Item as hot/cold
	// range-partitioned tables (on the header tid) with this fraction of
	// the bulk-loaded objects in the cold partition (paper Sec. 5.4 uses
	// cold:hot = 3:1, i.e. 0.75).
	ColdShare float64
	// Seed drives the deterministic random generator.
	Seed int64
}

// DefaultERPConfig returns a laptop-scale configuration.
func DefaultERPConfig() ERPConfig {
	return ERPConfig{
		Headers:        20000,
		ItemsPerHeader: 10,
		Categories:     200,
		Languages:      []string{"ENG", "GER", "FRA"},
		Years:          5,
		BaseYear:       2010,
		Seed:           1,
	}
}

// normalizeERPConfig validates and defaults a config; shared by the
// unsharded and sharded builders so both generators see identical
// parameters.
func normalizeERPConfig(cfg ERPConfig) (ERPConfig, error) {
	if cfg.Headers < 0 || cfg.ItemsPerHeader <= 0 || cfg.Categories <= 0 || len(cfg.Languages) == 0 {
		return cfg, fmt.Errorf("workload: invalid ERP config %+v", cfg)
	}
	if cfg.Years <= 0 {
		cfg.Years = 1
	}
	if cfg.BaseYear == 0 {
		cfg.BaseYear = 2010
	}
	return cfg, nil
}

// ERP is a generated ERP database: schema, matching dependencies, loaded
// main stores, and an insert stream for growing the deltas.
type ERP struct {
	erpQueries
	DB  *table.DB
	Reg *md.Registry
	Cfg ERPConfig

	gen *erpGen
}

// Table and column names of the ERP schema.
const (
	THeader   = "Header"
	TItem     = "Item"
	TCategory = "ProductCategory"
)

// createERPSchema creates the three tables (hot/cold-partitioning Header
// and Item when coldShare > 0) and registers the Header-Item matching
// dependency. Shared by the unsharded builder and every shard of the
// sharded one.
func createERPSchema(db *table.DB, reg *md.Registry, cfg ERPConfig) error {
	headerSchema, itemSchema, catSchema := erpSchemas()

	// The dimension always lives in a single partition; header and item may
	// be hot/cold partitioned on the header tid (insertion time).
	if cfg.ColdShare > 0 {
		// Dimension rows burn cfg.Categories TIDs; the split TID separates
		// the cold fraction of the bulk-loaded business objects.
		splitTID := int64(cfg.Categories) + int64(float64(cfg.Headers)*cfg.ColdShare) + 1
		ranges := []table.RangePartition{
			{Name: "cold", Lo: 0, Hi: splitTID},
			{Name: "hot", Lo: splitTID, Hi: 1 << 62},
		}
		if _, err := db.CreatePartitioned(headerSchema, "TidHeader", ranges); err != nil {
			return err
		}
		if _, err := db.CreatePartitioned(itemSchema, "TidHeader", ranges); err != nil {
			return err
		}
	} else {
		if _, err := db.Create(headerSchema); err != nil {
			return err
		}
		if _, err := db.Create(itemSchema); err != nil {
			return err
		}
	}
	if _, err := db.Create(catSchema); err != nil {
		return err
	}

	return reg.Add(md.MD{
		Parent: THeader, ParentPK: "HeaderID", ParentTID: "TidHeader",
		Child: TItem, ChildFK: "HeaderID", ChildTID: "TidHeader",
	})
}

// BuildERP creates the schema, registers the Header-Item matching
// dependency, loads the dimension, and bulk-loads the configured number of
// business objects into the main stores.
func BuildERP(cfg ERPConfig) (*ERP, error) {
	cfg, err := normalizeERPConfig(cfg)
	if err != nil {
		return nil, err
	}
	db := table.Open()
	e := &ERP{
		DB:  db,
		Reg: md.NewRegistry(db),
		Cfg: cfg,
		gen: newERPGen(cfg),
	}
	if err := createERPSchema(e.DB, e.Reg, cfg); err != nil {
		return nil, err
	}
	if err := e.gen.loadDimensionInto(e.DB); err != nil {
		return nil, err
	}
	if err := e.gen.bulkLoadObjects(cfg.Headers, []*table.DB{e.DB}, nil); err != nil {
		return nil, err
	}
	return e, nil
}

// bulkLoadObjects loads n business objects straight into the main stores
// with synthetic, strictly increasing header TIDs — the state after a long
// history of inserts followed by delta merges. Objects are ordered by
// fiscal year (oldest first), so TIDs correlate with time. route maps an
// object's header id to the index of the database in dbs that owns it (nil
// routes every object to dbs[0]); rows are generated in the same order
// (same rng consumption) whatever the routing. With hot/cold partitioning
// the cold share lands in the cold partition by TID routing. Every
// database's watermark advances to the same value, as if each had observed
// the full global insert history: per-database TIDs stay strictly
// increasing, which is all visibility and pruning require.
func (g *erpGen) bulkLoadObjects(n int, dbs []*table.DB, route func(hid int64) int) error {
	if n == 0 {
		return nil
	}
	// One batch per (database, partition) and table; Header and Item share
	// the partitioning on the header tid.
	type batch struct {
		rows [][]column.Value
		tids []txn.TID
	}
	hdrTables := make([]*table.Table, len(dbs))
	hdr, items := make([][]batch, len(dbs)), make([][]batch, len(dbs))
	for d, db := range dbs {
		hdrTables[d] = db.MustTable(THeader)
		parts := len(hdrTables[d].Partitions())
		hdr[d], items[d] = make([]batch, parts), make([]batch, parts)
	}
	base := dbs[0].Txns().Watermark()
	for k := 0; k < n; k++ {
		tid := base + txn.TID(k) + 1
		year := g.cfg.BaseYear + k*g.cfg.Years/n
		hid := g.nextHeader
		g.nextHeader++
		d := 0
		if route != nil {
			d = route(hid)
		}
		hrow := g.headerRow(hid, year, tid)
		part := partitionFor(hdrTables[d], hrow)
		hb, ib := &hdr[d][part], &items[d][part]
		hb.rows = append(hb.rows, hrow)
		hb.tids = append(hb.tids, tid)
		for j := 0; j < g.cfg.ItemsPerHeader; j++ {
			// TidItem and TidHeader are both the object's insertion TID.
			ib.rows = append(ib.rows, g.itemRow(hid, tid, tid))
			ib.tids = append(ib.tids, tid)
		}
	}
	for d, db := range dbs {
		for _, load := range []struct {
			table   string
			batches []batch
		}{{THeader, hdr[d]}, {TItem, items[d]}} {
			for part, b := range load.batches {
				if len(b.rows) == 0 {
					continue
				}
				if err := db.MustTable(load.table).BulkLoadMain(part, b.rows, b.tids); err != nil {
					return err
				}
			}
		}
		db.Txns().AdvanceTo(base + txn.TID(n))
	}
	return nil
}

// ItemCol resolves an Item column name to its schema index; benchmark
// drivers use it to fill tid columns without hard-coding positions.
func (e *ERP) ItemCol(name string) int {
	return e.DB.MustTable(TItem).Schema().MustColIndex(name)
}

// partitionFor routes a row the same way Insert would; single-partition
// tables always return 0.
func partitionFor(t *table.Table, vals []column.Value) int {
	parts := t.Partitions()
	if len(parts) == 1 {
		return 0
	}
	tid := vals[t.Schema().MustColIndex("TidHeader")].I
	for i, p := range parts {
		if tid >= p.Lo && tid < p.Hi {
			return i
		}
	}
	return len(parts) - 1
}

// InsertBusinessObject inserts one header with the given number of items in
// a single transaction, enforcing the matching dependency (the child tid is
// looked up from the header) — the insert pattern of Sec. 3.2.
func (e *ERP) InsertBusinessObject(items int) error {
	return e.gen.commitObject(e.DB, e.Reg, items)
}

// commitObject writes the next business object into db in a transaction of
// its own.
func (g *erpGen) commitObject(db *table.DB, reg *md.Registry, items int) error {
	tx := db.Txns().Begin()
	if err := g.insertObject(db, reg, tx, items); err != nil {
		tx.Abort()
		return err
	}
	tx.Commit()
	return nil
}

// insertObject writes the next business object — a header and the given
// number of items, MD-enforced against reg — into db inside tx, leaving tx
// open. The object's ids are consumed either way.
func (g *erpGen) insertObject(db *table.DB, reg *md.Registry, tx *txn.Txn, items int) error {
	hid := g.nextHeader
	g.nextHeader++
	year := g.cfg.BaseYear + g.cfg.Years - 1 // new objects belong to the current year
	if _, err := db.MustTable(THeader).Insert(tx, g.headerRow(hid, year, tx.ID())); err != nil {
		return err
	}
	for j := 0; j < items; j++ {
		// TidHeader is left zero for the MD enforcement to fill.
		ivals := g.itemRow(hid, tx.ID(), 0)
		if err := reg.FillChildTIDs(TItem, ivals); err != nil {
			return err
		}
		if _, err := db.MustTable(TItem).Insert(tx, ivals); err != nil {
			return err
		}
	}
	return nil
}

// InsertBusinessObjects inserts n business objects with the configured
// items-per-header ratio.
func (e *ERP) InsertBusinessObjects(n int) error {
	for i := 0; i < n; i++ {
		if err := e.InsertBusinessObject(e.Cfg.ItemsPerHeader); err != nil {
			return err
		}
	}
	return nil
}

// NewItemRow builds one item row with zeroed TidItem and TidHeader for
// external insertion paths (the overhead experiments fill the tids
// themselves).
func (e *ERP) NewItemRow(headerID int64) []column.Value {
	return e.gen.itemRow(headerID, 0, 0)
}

// NextHeaderID exposes the next unused header id (for external inserts).
func (e *ERP) NextHeaderID() int64 { return e.gen.nextHeader }
