// Package aggcache is a from-scratch Go reproduction of "Using
// Object-Awareness to Optimize Join Processing in the SAP HANA Aggregate
// Cache" (Müller, Nica, Butzmann, Klauck, Plattner — EDBT 2015).
//
// The repository implements the full system stack the paper builds on:
//
//   - a columnar in-memory storage engine with the main-delta architecture
//     (internal/column, internal/table): read-optimized main stores with
//     sorted, delta-compressed dictionaries and bit-packed value IDs;
//     append-optimized delta stores; MVCC row visibility; the delta-merge
//     operation; and hot/cold range partitioning,
//   - a transaction layer with monotonically increasing transaction IDs and
//     a consistent view manager rendering visibility bit vectors
//     (internal/txn),
//   - an aggregate-query engine with hash joins, subjoin-combination
//     enumeration over partitioned tables, and incrementally maintainable
//     aggregation tables (internal/query, internal/expr),
//   - matching dependencies carrying application object semantics into the
//     database: insert-time enforcement, the dynamic join-pruning
//     prefilter, and join-predicate pushdown (internal/md), and
//   - the paper's primary contribution, the aggregate cache
//     (internal/core): cached main-store aggregates kept consistent by main
//     and delta compensation, maintained incrementally during delta merges,
//     with profit-based admission and eviction, plus the classical eager
//     and lazy materialized-view baselines.
//
// The experiments of the paper's evaluation section are reproduced in
// internal/bench and runnable via cmd/benchrunner; the benchmark/ module
// measures the engine's end-to-end speed. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured results.
package aggcache
