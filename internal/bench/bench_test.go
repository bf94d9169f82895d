package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestRenderAndNormalize(t *testing.T) {
	r := &Result{
		ID: "x", Title: "test", XLabel: "n", YLabel: "ms",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 1, Y: 10}, {X: 2, Y: 20}}},
			{Label: "b", Points: []Point{{X: 1, Y: 5}}},
		},
		Notes: []string{"hello"},
	}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: test ==", "a", "b", "10.000", "hello", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
	n := r.Normalized()
	if n.Series[0].Points[1].Y != 1.0 || n.Series[1].Points[0].Y != 0.25 {
		t.Fatalf("normalization wrong: %+v", n.Series)
	}
	if r.Series[0].Points[1].Y != 20 {
		t.Fatal("Normalized mutated the original")
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig7"); !ok {
		t.Fatal("fig7 missing from registry")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id found")
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	want := "fig6 mem insert fig7 fig8 fig9 fig10 fig11 ablate-sync ablate-negdelta"
	if got := strings.Join(ids, " "); got != want {
		t.Fatalf("experiments = %s, want %s", got, want)
	}
}

// checkResult validates the invariants every experiment result must hold:
// named series, aligned non-negative points, and at least one note.
func checkResult(t *testing.T, r *Result, wantSeries int) {
	t.Helper()
	if r == nil {
		t.Fatal("nil result")
	}
	if len(r.Series) != wantSeries {
		t.Fatalf("%s: %d series, want %d", r.ID, len(r.Series), wantSeries)
	}
	for _, s := range r.Series {
		if s.Label == "" || len(s.Points) == 0 {
			t.Fatalf("%s: empty series %+v", r.ID, s)
		}
		for _, p := range s.Points {
			if p.Y < 0 {
				t.Fatalf("%s: negative measurement %+v in %s", r.ID, p, s.Label)
			}
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if buf.Len() == 0 {
		t.Fatalf("%s rendered nothing", r.ID)
	}
}

// timingCheck asserts a comparison between two wall-clock measurements.
// Tier 1 must not depend on the clock, so the comparison is enforced only
// when AGGCACHE_SOAK_ITERS is set (CI's soak job); otherwise a miss is
// logged.
func timingCheck(t *testing.T, ok bool, format string, args ...any) {
	t.Helper()
	if ok {
		return
	}
	if timingEnforced() {
		t.Errorf(format, args...)
	} else {
		t.Logf("not enforced without AGGCACHE_SOAK_ITERS: "+format, args...)
	}
}

func timingEnforced() bool { return os.Getenv("AGGCACHE_SOAK_ITERS") != "" }

func TestRunFig6Quick(t *testing.T) {
	r, err := RunFig6(true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, 3)
	// The aggregate cache must beat the MV strategies in the insert-only
	// workload (the right edge of Fig. 6).
	last := len(r.Series[2].Points) - 1
	cache := r.Series[2].Points[last].Y
	eager := r.Series[0].Points[last].Y
	timingCheck(t, cache < eager,
		"at 100%% inserts: cache %.2fms >= eager %.2fms; expected cache cheaper", cache, eager)
}

func TestRunMemOverheadQuick(t *testing.T) {
	r, err := RunMemOverhead(true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, 3)
	// Overheads must be positive and the main-store overhead must not
	// exceed the delta-store overhead (main compresses tids better).
	deltaPct := r.Series[2].Points[0].Y
	mainPct := r.Series[2].Points[1].Y
	if deltaPct <= 0 || mainPct <= 0 {
		t.Fatalf("overheads = %.1f%%/%.1f%%, want positive", deltaPct, mainPct)
	}
	if deltaPct > 40 || mainPct > 40 {
		t.Fatalf("overheads = %.1f%%/%.1f%%, implausibly large", deltaPct, mainPct)
	}
}

func TestRunInsertOverheadQuick(t *testing.T) {
	r, err := RunInsertOverhead(true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, 3)
	// Bare insert must not be slower than MD-enforced insert.
	last := len(r.Series[0].Points) - 1
	bare, md := r.Series[0].Points[last].Y, r.Series[2].Points[last].Y
	timingCheck(t, bare <= md*1.5, "bare insert %.2fus slower than MD insert %.2fus", bare, md)
}

func TestRunFig7Quick(t *testing.T) {
	r, err := RunFig7(true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, 4)
	// Full pruning must beat uncached at the smallest delta.
	full, uncached := r.Series[3].Points[0].Y, r.Series[0].Points[0].Y
	timingCheck(t, full < uncached,
		"full pruning %.2fms not faster than uncached %.2fms at smallest delta", full, uncached)
}

func TestRunFig8Quick(t *testing.T) {
	r, err := RunFig8(true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, 4)
}

func TestRunFig9Quick(t *testing.T) {
	r, err := RunFig9(true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, 4)
	// Four queries per strategy.
	for _, s := range r.Series {
		if len(s.Points) != 4 {
			t.Fatalf("series %s has %d points, want 4", s.Label, len(s.Points))
		}
	}
}

func TestRunFig10Quick(t *testing.T) {
	r, err := RunFig10(true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, 2)
	// Pushdown must not be slower than the regular join at the smallest
	// matching count.
	pushdown, regular := r.Series[1].Points[0].Y, r.Series[0].Points[0].Y
	timingCheck(t, pushdown <= regular, "pushdown %.2fms slower than regular %.2fms", pushdown, regular)
}

func TestRunFig11Quick(t *testing.T) {
	r, err := RunFig11(true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, 6)
}

func TestRunAblateMergeSyncQuick(t *testing.T) {
	r, err := RunAblateMergeSync(true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, 2)
	// The independent-merge policy must need pushdown compensations; the
	// synchronized policy must not (its mixed pairs always prune).
	var syncNote, indepNote string
	for _, n := range r.Notes {
		if len(n) >= 12 && n[:12] == "synchronized" {
			syncNote = n
		}
		if len(n) >= 11 && n[:11] == "independent" {
			indepNote = n
		}
	}
	if syncNote == "" || indepNote == "" {
		t.Fatalf("notes missing: %v", r.Notes)
	}
}

func TestRunAblateNegDeltaQuick(t *testing.T) {
	r, err := RunAblateNegDelta(true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, 2)
	// Compensation must beat the rebuild for a single-row update.
	comp, rebuild := r.Series[0].Points[0].Y, r.Series[1].Points[0].Y
	timingCheck(t, comp < rebuild, "compensation %.2fms not faster than rebuild %.2fms", comp, rebuild)
}
