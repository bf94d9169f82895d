// Package table implements the table engine of the main-delta column store:
// tables whose partitions each consist of a read-optimized main store and a
// write-optimized delta store, row-level MVCC metadata, primary-key indexes,
// range (hot/cold) partitioning, and the delta-merge operation that
// propagates delta rows into a freshly encoded main store (paper Sec. 2,
// Sec. 5.4).
//
// Concurrency contract: Table methods are not self-synchronizing. The DB
// container exposes a coarse reader/writer lock; all mutations and merges
// must run under the write lock and query execution under the read lock,
// which is what the aggregate cache manager does.
package table

import (
	"fmt"

	"aggcache/internal/column"
)

// ColumnDef declares one column of a schema.
type ColumnDef struct {
	Name string
	Kind column.Kind
}

// Schema describes a table: its name, columns, and optional integer
// primary key used for referential checks and matching-dependency lookups.
type Schema struct {
	Name string
	Cols []ColumnDef
	// PK names an Int64 column acting as the primary key, or "" for none.
	PK string
}

// Validate checks structural invariants: non-empty name, unique column
// names, and an Int64 primary key if one is declared.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("table: schema without a name")
	}
	if len(s.Cols) == 0 {
		return fmt.Errorf("table %s: schema without columns", s.Name)
	}
	seen := make(map[string]bool, len(s.Cols))
	for _, c := range s.Cols {
		if c.Name == "" {
			return fmt.Errorf("table %s: column without a name", s.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("table %s: duplicate column %s", s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	if s.PK != "" {
		i := s.ColIndex(s.PK)
		if i < 0 {
			return fmt.Errorf("table %s: primary key %s is not a column", s.Name, s.PK)
		}
		if s.Cols[i].Kind != column.Int64 {
			return fmt.Errorf("table %s: primary key %s must be int64", s.Name, s.PK)
		}
	}
	return nil
}

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// pkCol returns the index of the primary-key column, or -1 for none.
func (s *Schema) pkCol() int {
	if s.PK == "" {
		return -1
	}
	return s.ColIndex(s.PK)
}

// MustColIndex is ColIndex that panics on unknown columns; used on paths
// where the schema was validated up front.
func (s *Schema) MustColIndex(name string) int {
	i := s.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("table %s: unknown column %s", s.Name, name))
	}
	return i
}
