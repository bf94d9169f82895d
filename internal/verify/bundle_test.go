package verify_test

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"aggcache/internal/core"
	"aggcache/internal/difftest"
	"aggcache/internal/obs"
	"aggcache/internal/verify"
	"aggcache/internal/workload"
)

// goldenBundleKeys is the pinned top-level schema of a diagnostics
// bundle. Changing this set requires bumping verify.BundleSchemaVersion.
var goldenBundleKeys = []string{
	"advisor",
	"audit",
	"cache",
	"created_unix_ms",
	"events_tail",
	"governor",
	"ledger_canon",
	"ledger_tail",
	"meta",
	"metrics",
	"recycler",
	"schema_version",
	"series",
	"shapes",
	"slo",
	"traces",
	"verify",
}

// goldenAuditKeys pins the audit section: since schema version 2 it holds
// one cache/recycler report per shard.
var (
	goldenAuditKeys      = []string{"ok", "passes", "shards", "unix_ms", "violations"}
	goldenShardAuditKeys = []string{"cache", "recycler"}
)

// bundleKeys lists the top-level JSON keys of a bundle or bundle section.
func bundleKeys(t *testing.T, b any) []string {
	t.Helper()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(top))
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestBundleGoldenSchema round-trips a fully-wired bundle through JSON and
// pins its top-level key set, so any accidental schema change fails here
// instead of breaking postmortem tooling silently.
func TestBundleGoldenSchema(t *testing.T) {
	erp, err := workload.BuildERP(difftest.SmallERP(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	led := obs.NewLedger(16)
	rec := obs.NewRecorder(obs.RecorderConfig{})
	m := core.NewManager(erp.DB, erp.Reg, core.Config{
		Metrics:  reg,
		Ledger:   led,
		Recorder: rec,
		SLO:      obs.NewSLO(obs.SLOConfig{}),
		Shapes:   obs.NewShapes(0, 0),
	})
	if _, _, err := m.Execute(erp.ProfitQuery(2012, "ENG"), core.CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	tail := obs.NewLineTail(8)
	obs.NewEventLog(tail).Emit("bundle-test")
	a := verify.NewAuditor([]*core.Manager{m}, verify.AuditorConfig{Metrics: reg})
	v := verify.New(m, verify.Config{SampleRate: 0.5})
	defer v.Stop()

	b := verify.Collect(verify.BundleSources{
		Meta:      map[string]string{"binary": "bundle_test"},
		Registry:  reg,
		Events:    tail,
		Recorder:  rec,
		Ledger:    led,
		Advisor:   func() any { return map[string]int{"entries": 1} },
		Shapes:    m.Shapes(),
		SLO:       m.SLO(),
		Governor:  func() any { return nil },
		Recycler:  func() any { return m.AuditRecycler() },
		Cache:     func() any { return m.AuditCache() },
		Auditor:   a,
		Verifiers: []*verify.Verifier{v},
	})
	if b.SchemaVersion != verify.BundleSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", b.SchemaVersion, verify.BundleSchemaVersion)
	}
	if got := bundleKeys(t, b); !reflect.DeepEqual(got, goldenBundleKeys) {
		t.Fatalf("bundle top-level keys drifted:\n got: %v\nwant: %v", got, goldenBundleKeys)
	}
	if b.Audit == nil || !b.Audit.OK || len(b.Audit.Shards) != 1 {
		t.Fatalf("bundle audit section missing or failing: %+v", b.Audit)
	}
	if got := bundleKeys(t, b.Audit); !reflect.DeepEqual(got, goldenAuditKeys) {
		t.Fatalf("audit section keys drifted:\n got: %v\nwant: %v", got, goldenAuditKeys)
	}
	if got := bundleKeys(t, b.Audit.Shards[0]); !reflect.DeepEqual(got, goldenShardAuditKeys) {
		t.Fatalf("per-shard audit keys drifted:\n got: %v\nwant: %v", got, goldenShardAuditKeys)
	}
	if len(b.Verify) != 1 || b.Verify[0].SampleRate != 0.5 {
		t.Fatalf("bundle verify section wrong: %+v", b.Verify)
	}
	if len(b.LedgerTail) == 0 || b.LedgerCanon == "" {
		t.Fatal("bundle ledger section empty despite recorded decisions")
	}
	if len(b.EventsTail) != 1 {
		t.Fatalf("events tail carried %d lines, want 1", len(b.EventsTail))
	}
}

// TestBundleEmptySources checks that a bundle built from nothing still
// serializes the full schema — absent sources must degrade to null/empty
// sections, not missing keys.
func TestBundleEmptySources(t *testing.T) {
	b := verify.Collect(verify.BundleSources{})
	if got := bundleKeys(t, b); !reflect.DeepEqual(got, goldenBundleKeys) {
		t.Fatalf("empty bundle keys drifted:\n got: %v\nwant: %v", got, goldenBundleKeys)
	}
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var back verify.Bundle
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != verify.BundleSchemaVersion {
		t.Fatalf("schema_version lost in round-trip: %d", back.SchemaVersion)
	}
}
