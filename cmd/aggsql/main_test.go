package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/recycler"
	"aggcache/internal/sql"
	"aggcache/internal/workload"
)

func smallERP() workload.ERPConfig {
	return workload.ERPConfig{
		Headers:        300,
		ItemsPerHeader: 4,
		Categories:     12,
		Languages:      []string{"ENG", "GER"},
		Years:          4,
		BaseYear:       2012,
		Seed:           3,
	}
}

func smallCH() workload.CHConfig {
	return workload.CHConfig{
		Orders:        200,
		LinesPerOrder: 3,
		Customers:     50,
		Items:         40,
		Warehouses:    2,
		Suppliers:     10,
		DeltaShare:    0.05,
		Seed:          3,
	}
}

// testConfig is the template the shell's main builds, at test scale: every
// shared observer wired, a private registry.
func testConfig() core.Config {
	return core.Config{
		Workers:  2,
		Metrics:  obs.NewRegistry(),
		Recorder: obs.NewRecorder(obs.RecorderConfig{}),
		Ledger:   obs.NewLedger(0),
		SLO:      obs.NewSLO(obs.SLOConfig{}),
		Shapes:   obs.NewShapes(0, 0),
	}
}

// startShell starts the shell's background services with the given
// options and stops them when the test ends; output goes to the returned
// buffer.
func startShell(t *testing.T, sh *shell, o options) *bytes.Buffer {
	t.Helper()
	out := &bytes.Buffer{}
	sh.out = out
	if o.sample == 0 {
		o.sample = time.Hour
	}
	t.Cleanup(sh.start(o))
	return out
}

// run executes one statement and returns what it printed.
func run(t *testing.T, sh *shell, out *bytes.Buffer, stmt string) string {
	t.Helper()
	out.Reset()
	if err := sh.runStatement(stmt); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return out.String()
}

// command runs one backslash command and returns what it printed.
func command(t *testing.T, sh *shell, out *bytes.Buffer, cmd string) string {
	t.Helper()
	out.Reset()
	sh.runCommand(cmd)
	if strings.Contains(out.String(), "error:") {
		t.Fatalf("%s: %s", cmd, out.String())
	}
	return out.String()
}

// resultRows drops a statement's closing summary line: the rows alone.
func resultRows(printed string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(printed, "\n") {
		if !strings.HasPrefix(line, "-- ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

var erpStatements = []string{
	"SELECT d.Name, SUM(i.Price) AS Profit FROM Header h JOIN Item i ON h.HeaderID = i.HeaderID JOIN ProductCategory d ON i.CategoryID = d.CategoryID WHERE d.Language = 'ENG' AND h.FiscalYear = 2015 GROUP BY d.Name;",
	"SELECT i.CategoryID, SUM(i.Price) AS Revenue, COUNT(*) AS N FROM Header h JOIN Item i ON h.HeaderID = i.HeaderID WHERE h.FiscalYear >= 2013 AND h.FiscalYear <= 2015 GROUP BY i.CategoryID;",
	"SELECT FiscalYear, COUNT(*) AS N FROM Header GROUP BY FiscalYear;",
	"SELECT CategoryID, SUM(Price) AS Revenue, COUNT(*) AS N FROM Item GROUP BY CategoryID;",
	"SELECT COUNT(*) AS N FROM Header WHERE HeaderID < 50;",
}

// TestShellShardCountInvisible drives the shell through SELECTs, \insert,
// \merge and SELECTs again at one and at four shards: every statement's
// result rows must be byte-identical.
func TestShellShardCountInvisible(t *testing.T) {
	transcript := func(shards int) []string {
		sh, err := loadERP(smallERP(), shards, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		out := startShell(t, sh, options{verifyRate: 1})
		var rows []string
		selects := func() {
			for _, stmt := range erpStatements {
				rows = append(rows, resultRows(run(t, sh, out, stmt)))
			}
		}
		selects()
		if got := command(t, sh, out, "\\insert 20"); !strings.HasPrefix(got, "inserted 20") {
			t.Fatalf("\\insert printed %q", got)
		}
		selects()
		if got := command(t, sh, out, "\\merge"); !strings.HasPrefix(got, "merged Header, Item on") {
			t.Fatalf("\\merge printed %q", got)
		}
		selects()
		return rows
	}
	one, four := transcript(1), transcript(4)
	for i := range one {
		if strings.Count(one[i], "\n") < 3 {
			t.Fatalf("statement %d printed no rows:\n%s", i, one[i])
		}
		if one[i] != four[i] {
			t.Fatalf("statement %d differs across shard counts\n1 shard:\n%s\n4 shards:\n%s", i, one[i], four[i])
		}
	}
}

// chStatements are CH-benCHmark Q3, Q5, Q9 and Q10 in the shell's SQL.
var chStatements = map[string]string{
	"Q3":  "SELECT o.o_entry_year, SUM(ol.ol_amount) AS revenue, COUNT(*) AS n FROM customer c JOIN orders o ON c.c_key = o.o_c_key JOIN neworder no ON o.o_key = no.no_o_key JOIN orderline ol ON o.o_key = ol.ol_o_key WHERE c.c_state_a = 1 GROUP BY o.o_entry_year;",
	"Q5":  "SELECT n.n_name, SUM(ol.ol_amount) AS revenue FROM customer c JOIN orders o ON c.c_key = o.o_c_key JOIN orderline ol ON o.o_key = ol.ol_o_key JOIN stock s ON ol.ol_stock_key = s.s_key JOIN supplier su ON s.s_su_key = su.su_key JOIN nation n ON su.su_n_key = n.n_key JOIN region r ON n.n_r_key = r.r_key WHERE r.r_name = 'EUROPE' GROUP BY n.n_name;",
	"Q9":  "SELECT n.n_name, o.o_entry_year, SUM(ol.ol_amount) AS sum_profit FROM orderline ol JOIN orders o ON ol.ol_o_key = o.o_key JOIN stock s ON ol.ol_stock_key = s.s_key JOIN supplier su ON s.s_su_key = su.su_key JOIN nation n ON su.su_n_key = n.n_key JOIN item i ON ol.ol_i_id = i.i_id WHERE i.i_data_flag = 1 GROUP BY n.n_name, o.o_entry_year;",
	"Q10": "SELECT n.n_name, SUM(ol.ol_amount) AS revenue, COUNT(*) AS n FROM customer c JOIN orders o ON c.c_key = o.o_c_key JOIN orderline ol ON o.o_key = ol.ol_o_key JOIN nation n ON c.c_n_key = n.n_key WHERE o.o_entry_year >= 2013 GROUP BY n.n_name;",
}

// TestShellCHOneShard runs CH's Q3/Q5/Q9/Q10 through the one-shard shell
// and through a plain uncached manager over an identically built and grown
// database: the result rows must match, before and after inserts and a
// merge.
func TestShellCHOneShard(t *testing.T) {
	sh, err := loadCH(smallCH(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := startShell(t, sh, options{})
	ch, err := workload.BuildCH(smallCH())
	if err != nil {
		t.Fatal(err)
	}
	plain := core.NewManager(ch.DB, ch.Reg, core.Config{Workers: 1, Metrics: obs.NewRegistry()})
	want := &bytes.Buffer{}
	oracle := &shell{out: want}

	check := func(phase string) {
		for name, q := range ch.Queries() {
			st, err := sql.Parse(ch.DB, chStatements[name])
			if err != nil {
				t.Fatal(err)
			}
			if st.Query.Fingerprint() != q.Fingerprint() {
				t.Fatalf("%s SQL is not CH %s:\n got %s\nwant %s", name, name, st.Query.Fingerprint(), q.Fingerprint())
			}
			res, _, err := plain.Execute(q, core.Uncached)
			if err != nil {
				t.Fatal(err)
			}
			want.Reset()
			oracle.printResult(st, res)
			if got := resultRows(run(t, sh, out, chStatements[name])); got != want.String() {
				t.Fatalf("%s %s: shell rows differ from the plain manager\n got:\n%s\nwant:\n%s", phase, name, got, want.String())
			}
		}
	}
	check("loaded")
	command(t, sh, out, "\\insert 15")
	for i := 0; i < 15; i++ {
		if err := ch.InsertOrder(); err != nil {
			t.Fatal(err)
		}
	}
	check("inserted")
	command(t, sh, out, "\\merge")
	check("merged")
}

// TestShellExplainAnalyzeOneShard checks that EXPLAIN ANALYZE through the
// one-shard cluster still prints the shard's execution tree: the cache
// verdict and one verdict span per subjoin combination.
func TestShellExplainAnalyzeOneShard(t *testing.T) {
	sh, err := loadERP(smallERP(), 1, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := startShell(t, sh, options{})
	run(t, sh, out, erpStatements[0])
	command(t, sh, out, "\\insert 10")
	got := run(t, sh, out, "EXPLAIN ANALYZE "+erpStatements[0])
	for _, want := range []string{
		"scatter T[", "shard.scattered=1", "└─ execute T[", "cache-lookup", "[verdict=hit]",
		"delta-compensation", "Header[0].delta x Item[0].delta x ProductCategory[0].main",
		"verdict=pruned-md", "critical path:", "-- shape:", "scattered 1/1 shards",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("EXPLAIN ANALYZE output lacks %q:\n%s", want, got)
		}
	}
}

// TestShellObserversCountQueries checks that the SLO tracker and the shape
// profiles count queries, not shard executions: three runs of a SELECT that
// every shard serves read three in \slo and \shapes at one and at four
// shards, and the repeats are hits only because every shard's execution was
// a memo hit.
func TestShellObserversCountQueries(t *testing.T) {
	long := regexp.MustCompile(`long window\s+\(\d+ slots\):\s+(\d+) queries`)
	for _, shards := range []int{1, 4} {
		cfg := testConfig()
		sh, err := loadERP(smallERP(), shards, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := startShell(t, sh, options{})
		for i := 0; i < 3; i++ {
			if got := run(t, sh, out, erpStatements[3]); !strings.Contains(got, fmt.Sprintf("scattered %d/%d", shards, shards)) {
				t.Fatalf("shards=%d: the SELECT did not reach every shard:\n%s", shards, got)
			}
		}
		m := long.FindStringSubmatch(command(t, sh, out, "\\slo"))
		if m == nil || m[1] != "3" {
			t.Fatalf("shards=%d: \\slo long window = %v, want 3 queries", shards, m)
		}
		shapes := strings.Split(strings.TrimSpace(command(t, sh, out, "\\shapes")), "\n")
		if len(shapes) != 2 || strings.Fields(shapes[1])[0] != "3" {
			t.Fatalf("shards=%d: \\shapes printed %q, want one shape with 3 queries", shards, shapes)
		}
		if p := cfg.Shapes.Profiles()[0]; p.Hits != 2 || p.MemoHits != 2 {
			t.Fatalf("shards=%d: shape profile %+v, want 2 hits, both memo hits", shards, p)
		}
	}
}

// TestShellSurfacesCoverEveryShard checks that at four shards the
// per-manager surfaces — \cache, /debug/cache, \recycler, \audit, \slo and
// the bundle's cache, recycler, governor, audit and verify sections — report
// every shard, not shard 0 alone.
func TestShellSurfacesCoverEveryShard(t *testing.T) {
	const shards = 4
	cfg := testConfig()
	cfg.Recycler = recycler.New(recycler.Config{Metrics: cfg.Metrics})
	sh, err := loadERP(smallERP(), shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := startShell(t, sh, options{verifyRate: 1, govern: true})
	run(t, sh, out, erpStatements[3])
	command(t, sh, out, "\\insert 5")
	run(t, sh, out, erpStatements[3])

	perShard := func(printed, format string) {
		t.Helper()
		for i := 0; i < shards; i++ {
			if want := fmt.Sprintf(format, i); !strings.Contains(printed, want) {
				t.Fatalf("output lacks %q:\n%s", want, printed)
			}
		}
	}
	cache := command(t, sh, out, "\\cache")
	perShard(cache, "shard %d: entries=1 ")
	perShard(command(t, sh, out, "\\recycler"), "shard %d: partials=")
	perShard(command(t, sh, out, "\\slo"), "governor shard %d: ")
	audit := command(t, sh, out, "\\audit")
	if !strings.HasPrefix(audit, "audit pass 1: OK") {
		t.Fatalf("\\audit printed:\n%s", audit)
	}
	perShard(audit, "  shard %d: watermark=")

	b := sh.bundle()
	if got := len(b.Cache.([]core.CacheDebug)); got != shards {
		t.Fatalf("bundle cache section has %d shards, want %d", got, shards)
	}
	if got := len(b.Recycler.([]recycler.Debug)); got != shards {
		t.Fatalf("bundle recycler section has %d shards, want %d", got, shards)
	}
	if got := len(b.Governor.([]core.GovernorSnapshot)); got != shards {
		t.Fatalf("bundle governor section has %d shards, want %d", got, shards)
	}
	if b.Audit == nil || len(b.Audit.Shards) != shards || !b.Audit.OK {
		t.Fatalf("bundle audit section does not cover %d shards: %+v", shards, b.Audit)
	}
	if len(b.Verify) != shards {
		t.Fatalf("bundle verify section has %d shards, want %d", len(b.Verify), shards)
	}
	for i, st := range b.Verify {
		if st.Checks+st.Pending+st.Dropped == 0 {
			t.Fatalf("shard %d's verifier saw nothing: %+v", i, st)
		}
	}

	mux := obs.DebugMux(sh.cfg.Metrics, sh.debugOptions())
	for path, n := range map[string]int{"/debug/cache": shards, "/debug/recycler": shards} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		var got []json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || len(got) != n {
			t.Fatalf("%s: %d shards (err %v), want %d:\n%s", path, len(got), err, n, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/shards", nil))
	var layout struct{ Shards int }
	if err := json.Unmarshal(rec.Body.Bytes(), &layout); err != nil || layout.Shards != shards {
		t.Fatalf("/debug/shards: %d %s", rec.Code, rec.Body.String())
	}
}
