package bench

import (
	"fmt"
	"testing"
	"time"
)

// soakTestParams returns a short, delta-heavy soak configuration for
// tests: deliberately small mains (a governed merge rebuilds the main, so
// small mains keep merge spikes cheap even single-core under -race), few
// clients, and a heavy front-loaded write burst — writers stop at 40% of
// the run, so the tail slices measure steady state: the governed arm has
// drained its deltas by then while the ungoverned arm drags the full
// backlog through every remaining query.
func soakTestParams() serveParams {
	p := serveQuickParams()
	p.erpHeaders = 500
	p.chOrders = 300
	p.clients = 2
	p.duration = 3 * time.Second
	p.writeFor = 1200 * time.Millisecond
	p.writeBatch = 40
	p.writePause = 200 * time.Microsecond
	p.deltaHigh = 1500
	return p
}

// TestRunServeQuick runs the full two-arm soak at a short duration and
// validates the report structure: p50/p99 series for both arms, the
// structured soak section, and one summary note per arm.
func TestRunServeQuick(t *testing.T) {
	defer func(d time.Duration, g bool) { SoakDuration, SoakGovernedOnly = d, g }(SoakDuration, SoakGovernedOnly)
	SoakDuration = 600 * time.Millisecond
	SoakGovernedOnly = false

	r, err := RunServe(true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, 4)
	wantLabels := map[string]bool{
		"p50 ungoverned": false, "p99 ungoverned": false,
		"p50 governed": false, "p99 governed": false,
	}
	for _, s := range r.Series {
		if _, ok := wantLabels[s.Label]; !ok {
			t.Fatalf("unexpected series %q", s.Label)
		}
		wantLabels[s.Label] = true
	}
	for label, seen := range wantLabels {
		if !seen {
			t.Fatalf("series %q missing", label)
		}
	}
	if r.Soak == nil || len(r.Soak.Arms) != 2 {
		t.Fatalf("soak stats = %+v, want 2 arms", r.Soak)
	}
	for _, arm := range r.Soak.Arms {
		if arm.Queries == 0 || arm.QPS <= 0 {
			t.Fatalf("arm %+v served no queries", arm)
		}
		if arm.WritesERP == 0 || arm.WritesCH == 0 {
			t.Fatalf("arm %+v: writers starved", arm)
		}
		if arm.P99MS < arm.P50MS {
			t.Fatalf("arm %+v: p99 < p50", arm)
		}
	}
	if len(r.Notes) != 2 {
		t.Fatalf("notes = %v, want one per arm", r.Notes)
	}
}

// TestRunServeGovernedOnly: -govern restricts the soak to the governed arm.
func TestRunServeGovernedOnly(t *testing.T) {
	defer func(d time.Duration, g bool) { SoakDuration, SoakGovernedOnly = d, g }(SoakDuration, SoakGovernedOnly)
	SoakDuration = 400 * time.Millisecond
	SoakGovernedOnly = true

	r, err := RunServe(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Soak.Arms) != 1 || !r.Soak.Arms[0].Governed {
		t.Fatalf("arms = %+v, want only the governed arm", r.Soak.Arms)
	}
	for _, s := range r.Series {
		if s.Label == "p50 ungoverned" || s.Label == "p99 ungoverned" {
			t.Fatalf("ungoverned series %q present in governed-only run", s.Label)
		}
	}
}

// lastSliceP99 reads the final point of an arm's p99-per-slice series —
// the steady-state tail latency after the write burst has settled.
func lastSliceP99(t *testing.T, series []Series) float64 {
	t.Helper()
	for _, s := range series {
		if len(s.Label) >= 3 && s.Label[:3] == "p99" && len(s.Points) > 0 {
			return s.Points[len(s.Points)-1].Y
		}
	}
	t.Fatal("no p99 series with points")
	return 0
}

// TestSoakGovernedBeatsUngoverned is the paired soak. Its tier-1 half is
// independent of pacing: after a delta-heavy write burst the governed arm
// has merged at least once, and every shadow-verified query matched the
// uncached oracle. The cross-arm half compares wall-clock-paced runs, so it
// is enforced only when AGGCACHE_SOAK_ITERS is set (CI's soak job): the
// governed arm's merges have drained the deltas, so its backlog is smaller
// and its steady-state (last time slice) p99 must not exceed the ungoverned
// arm's, which pays delta compensation on the whole backlog for every
// query. Steady state is compared rather than whole-run p99 because the
// merges themselves cost CPU during the burst — that spike is the price,
// the drained tail is the payoff. One retry absorbs scheduler noise on
// loaded CI machines.
func TestSoakGovernedBeatsUngoverned(t *testing.T) {
	defer func(v float64) { VerifySample = v }(VerifySample)
	VerifySample = 0.05
	p := soakTestParams()
	report := "governed arm never merged"
	for attempt := 0; attempt < 2; attempt++ {
		gov, govSeries, err := runServeArm(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if gov.VerifyChecks == 0 || gov.VerifyDivergences != 0 {
			t.Fatalf("governed arm: %d shadow checks, %d divergences; want checks and no divergence",
				gov.VerifyChecks, gov.VerifyDivergences)
		}
		if gov.Merges == 0 {
			continue // stream not delta-heavy enough this round; retry
		}
		if !timingEnforced() {
			return
		}
		un, unSeries, err := runServeArm(p, false)
		if err != nil {
			t.Fatal(err)
		}
		unP99, govP99 := lastSliceP99(t, unSeries), lastSliceP99(t, govSeries)
		report = fmt.Sprintf(
			"governed steady-state p99 %.3fms (merges=%d, deltas left=%d) vs ungoverned %.3fms (deltas left=%d)",
			govP99, gov.Merges, gov.DeltaRowsEnd, unP99, un.DeltaRowsEnd)
		if gov.DeltaRowsEnd < un.DeltaRowsEnd && govP99 <= unP99 {
			return
		}
	}
	t.Fatalf("%s after retries", report)
}
