package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"aggcache/internal/column"
	"aggcache/internal/obs"
	"aggcache/internal/query"
)

// parseEvents decodes the JSON-lines event buffer.
func parseEvents(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("event line is not JSON: %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func countEvents(events []map[string]any, msg string) int {
	n := 0
	for _, e := range events {
		if e["msg"] == msg {
			n++
		}
	}
	return n
}

// assertSeamContract checks the observer seam's once-per-decision contract:
// for each lifecycle kind the scenario must have driven, the event-log lines,
// the registry counter and the ledger records of that kind agree in number
// (and are nonzero) — evictions additionally per reason.
func assertSeamContract(t *testing.T, events []map[string]any, reg *obs.Registry, led *obs.Ledger, reasons map[obs.DecisionKind][]string) {
	t.Helper()
	counters := reg.Snapshot().Counters
	ledger := led.Snapshot()
	for kind, rs := range reasons {
		metric := decisionSpecs[kind].metric
		records := 0
		byReason := map[string]int{}
		for _, d := range ledger {
			if d.Kind == kind {
				records++
				byReason[d.Reason]++
			}
		}
		lines := countEvents(events, metric)
		if records == 0 || lines != records || counters[metric] != int64(records) {
			t.Errorf("%s: %d event lines, counter %d, %d ledger records; want equal and nonzero",
				kind, lines, counters[metric], records)
		}
		attr := decisionSpecs[kind].reason
		for _, r := range rs {
			lines := 0
			for _, e := range events {
				if e["msg"] == metric && e[attr] == r {
					lines++
				}
			}
			if byReason[r] == 0 || lines != byReason[r] {
				t.Errorf("%s %s=%q: %d event lines, %d ledger records; want equal and nonzero", kind, attr, r, lines, byReason[r])
			}
			if kind == obs.DecisionEvict {
				name := "cache.evictions_" + strings.ReplaceAll(r, "-", "_")
				if counters[name] != int64(byReason[r]) {
					t.Errorf("%s = %d, want %d", name, counters[name], byReason[r])
				}
			}
		}
	}
}

// TestLifecycleEvents drives the full cache lifecycle with the event log
// attached and checks every stage emits a structured event whose name
// matches the registry metric it increments — the join key between the
// event stream and the time series.
func TestLifecycleEvents(t *testing.T) {
	var buf bytes.Buffer
	ev := obs.NewEventLog(&buf)
	reg := obs.NewRegistry()
	led := obs.NewLedger(0)
	e := newEnv(t, Config{Events: ev, Metrics: reg, Ledger: led, DisableJoinCompensation: true})
	e.db.SetEvents(ev)
	e.db.SetMetrics(reg)

	e.insertObject(t, 2013, 10, 20)
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	q := joinQuery()
	// Miss -> build -> admission; subjoin decisions fire during the build
	// and the delta compensation.
	if _, _, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	// Pending delta + merge -> merge events + merge-time maintenance.
	e.insertObject(t, 2014, 5)
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	// Main-store invalidation with join compensation disabled -> the entry
	// is invalidated and rebuilt on the next access.
	tx := e.db.Txns().Begin()
	if err := e.db.MustTable("Item").Update(tx, 1, map[string]column.Value{"Price": column.FloatV(99)}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if _, info, err := e.mgr.Execute(q, CachedFullPruning); err != nil {
		t.Fatal(err)
	} else if !info.Rebuilt {
		t.Fatalf("info = %+v, want rebuild", info)
	}

	events := parseEvents(t, &buf)
	for _, want := range []string{
		"cache.admissions", "cache.maintenances", "cache.invalidations",
		"table.merge_online_start", "table.merge_online_swap", "subjoins.executed",
	} {
		if countEvents(events, want) == 0 {
			t.Errorf("no %q event emitted; have %d events", want, len(events))
		}
	}
	prunes := countEvents(events, "subjoins.pruned_empty") +
		countEvents(events, "subjoins.pruned_md") + countEvents(events, "subjoins.pruned_scan")
	if prunes == 0 {
		t.Error("no subjoin prune events emitted")
	}

	// Event names join cleanly with the registry: each lifecycle event name
	// is a counter in the same snapshot, and the counts line up.
	snap := reg.Snapshot()
	for _, name := range []string{"cache.admissions", "cache.invalidations", "cache.maintenances"} {
		c, ok := snap.Counters[name]
		if !ok {
			t.Errorf("event name %q has no matching registry counter", name)
			continue
		}
		if got := int64(countEvents(events, name)); got != c {
			t.Errorf("%s: %d events vs counter %d", name, got, c)
		}
	}
	// One swap event per completed merge.
	if got, c := int64(countEvents(events, "table.merge_online_swap")), snap.Counters["table.merges"]; got != c || c == 0 {
		t.Errorf("table.merge_online_swap: %d events vs table.merges counter %d", got, c)
	}

	// Event payloads carry the promised fields.
	for _, e := range events {
		switch e["msg"] {
		case "cache.admissions":
			if e["key"] == nil || e["profit"] == nil || e["size_bytes"] == nil {
				t.Errorf("admission event missing fields: %v", e)
			}
		case "cache.invalidations":
			if e["key"] == nil || e["cause"] == nil {
				t.Errorf("invalidation event missing fields: %v", e)
			}
		case "table.merge_online_swap":
			if e["table"] == nil || e["from_delta"] == nil || e["swap_ns"] == nil {
				t.Errorf("merge event missing fields: %v", e)
			}
		case "subjoins.executed":
			if e["combo"] == nil || e["query"] == nil || e["tuples"] == nil {
				t.Errorf("executed event missing fields: %v", e)
			}
		}
	}

	// The rest of the lifecycle, driven for the seam's contract below.
	// A single-table entry is compensated in place when a row it covers is
	// deleted, and an online merge folds the pending delta into both entries.
	qh := headerOnlyQuery()
	if _, _, err := e.mgr.Execute(qh, CachedFullPruning); err != nil {
		t.Fatal(err)
	}
	tx = e.db.Txns().Begin()
	if err := e.db.MustTable("Header").Delete(tx, 1); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if _, info, err := e.mgr.Execute(qh, CachedFullPruning); err != nil || info.MainCompensated == 0 {
		t.Fatalf("info = %+v err = %v, want main compensation", info, err)
	}
	e.insertObject(t, 2015, 7)
	if err := e.db.MergeTablesOnline(false, "Header", "Item"); err != nil {
		t.Fatal(err)
	}
	// A MAX aggregate is not self-maintainable: built, then refused.
	nsm := headerOnlyQuery()
	nsm.Aggs = append(nsm.Aggs, query.AggSpec{Func: query.Max, Col: query.ColRef{Table: "Header", Col: "FiscalYear"}})
	if _, info, err := e.mgr.Execute(nsm, CachedFullPruning); err != nil || info.Admitted {
		t.Fatalf("info = %+v err = %v, want rejection", info, err)
	}

	events = parseEvents(t, &buf)
	for _, e := range events {
		if e["msg"] == "cache.maintenances" && (e["key"] == nil || e["table"] == nil || e["delta_tuples"] == nil) {
			t.Errorf("maintenance event missing fields: %v", e)
		}
	}
	assertSeamContract(t, events, reg, led, map[obs.DecisionKind][]string{
		obs.DecisionAdmit:      nil,
		obs.DecisionReject:     {"not-self-maintainable"},
		obs.DecisionInvalidate: nil,
		obs.DecisionCompensate: {"persist"},
		obs.DecisionFold:       {"online"},
	})
}

// TestNoEventsByDefault: a manager built with a zero Config (and no
// process-wide event log installed) must not emit anything and must not
// pay for attribute construction — the hot path stays clean.
func TestNoEventsByDefault(t *testing.T) {
	e := newEnv(t, Config{})
	if e.mgr.ev.Enabled() {
		t.Fatal("events enabled without configuration")
	}
	e.insertObject(t, 2013, 10)
	if _, _, err := e.mgr.Execute(joinQuery(), CachedFullPruning); err != nil {
		t.Fatal(err)
	}
}
