package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

// tinyConfig keeps the smoke tests fast: a few datasets per source.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.004
	cfg.OverlapScale = 0.004
	cfg.Q = 2
	cfg.K = 3
	cfg.CoverageSources = []string{"Transit"}
	cfg.LoadSecs = 0.4
	cfg.BigScale = 0.02
	return cfg
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is not short")
	}
	cfg := tinyConfig()
	seen := map[string]bool{}
	for _, e := range All() {
		e := e
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(cfg)
			if len(tables) == 0 {
				t.Fatalf("%s returned no tables", e.ID)
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", e.ID, tbl.Title)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Header) {
						t.Errorf("%s: row width %d != header width %d", e.ID, len(row), len(tbl.Header))
					}
				}
				if !strings.Contains(tbl.String(), tbl.Title) {
					t.Errorf("%s: String() misses the title", e.ID)
				}
				if !strings.Contains(tbl.CSV(), tbl.Header[0]) {
					t.Errorf("%s: CSV() misses the header", e.ID)
				}
			}
		})
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("nope", tinyConfig()); err == nil {
		t.Error("unknown experiment should error")
	}
	tables, err := Run("table2", tinyConfig())
	if err != nil || len(tables) != 1 {
		t.Fatalf("table2 run: %v, %d tables", err, len(tables))
	}
}

// TestFedcommSnapshotRoundTrip runs the protocol experiment at tiny scale
// (which itself enforces stateless/session result parity) and checks the
// snapshot file round-trips and diffs cleanly.
func TestFedcommSnapshotRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("fedcomm builds a five-source federation; not short")
	}
	report, tables, err := RunFedcomm(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 2 queries × 2 protocols.
	if len(tables) == 0 || len(report.Results) != 4 {
		t.Fatalf("unexpected shape: %d tables, %d results", len(tables), len(report.Results))
	}
	path := filepath.Join(t.TempDir(), "fedcomm.json")
	if err := WriteFedcomm(path, report); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFedcomm(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != FedcommSchema || len(back.Results) != len(report.Results) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	cmp := CompareFedcomm(back, report)
	if len(cmp.Rows) != len(report.Results) {
		t.Fatalf("compare table has %d rows, want %d", len(cmp.Rows), len(report.Results))
	}
	if _, err := ReadFedcomm(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("reading a missing snapshot should error")
	}
}

// execReportFixture builds a minimal report without running the
// experiment, for exercising the compare logic in isolation.
func execReportFixture(numCPU int, basis string, speedup float64) ExecReport {
	return ExecReport{
		Schema: ExecSchema, NumCPU: numCPU,
		Results: []ExecEntry{{
			Op: "parallel", Workers: 8, Queries: 2, K: 3,
			SeqNsPerQuery: 1000, ExecNsPerQuery: 500,
			Speedup: speedup, Basis: basis,
		}},
		ParallelSpeedupMaxW: speedup,
	}
}

// TestCompareExecWarnsAcrossBases pins the credibility contract of
// BENCH_exec.json: comparing a wall-clock snapshot against a modeled run
// (different hardware) must WARN in the notes, show both bases in the
// row, and never drop the row.
func TestCompareExecWarnsAcrossBases(t *testing.T) {
	base := execReportFixture(8, BasisWallClock, 4.0)
	cur := execReportFixture(1, BasisModeled, 3.5)
	tbl := CompareExec(base, cur)
	if len(tbl.Rows) != 1 {
		t.Fatalf("cross-basis compare dropped the row: %+v", tbl.Rows)
	}
	joined := strings.Join(tbl.Notes, "\n")
	if !strings.Contains(joined, "WARNING") || !strings.Contains(joined, "not directly comparable") {
		t.Fatalf("cross-basis compare must warn, notes:\n%s", joined)
	}
	if !strings.Contains(joined, "snapshot CPUs: 8 (physical 8), current CPUs: 1 (physical 1)") {
		t.Fatalf("compare must surface both hosts' CPU counts, notes:\n%s", joined)
	}
	if got := tbl.Rows[0][len(tbl.Rows[0])-1]; got != "wall-clock vs modeled" {
		t.Fatalf("basis cell = %q", got)
	}

	// Same basis on both sides: no warning, plain basis cell.
	tbl = CompareExec(execReportFixture(8, BasisWallClock, 4.0), execReportFixture(8, BasisWallClock, 4.1))
	if strings.Contains(strings.Join(tbl.Notes, "\n"), "WARNING") {
		t.Fatal("same-basis compare must not warn")
	}
	if got := tbl.Rows[0][len(tbl.Rows[0])-1]; got != BasisWallClock {
		t.Fatalf("basis cell = %q", got)
	}
}

// TestExecSnapshotNormalizesLegacyBasis checks that snapshots written
// before the wall → wall-clock rename still read and compare cleanly.
func TestExecSnapshotNormalizesLegacyBasis(t *testing.T) {
	legacy := execReportFixture(8, "wall", 4.0)
	path := filepath.Join(t.TempDir(), "exec.json")
	if err := WriteExec(path, legacy); err != nil {
		t.Fatal(err)
	}
	back, err := ReadExec(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Results[0].Basis != BasisWallClock {
		t.Fatalf("legacy basis not normalized: %q", back.Results[0].Basis)
	}
	tbl := CompareExec(back, execReportFixture(8, BasisWallClock, 4.2))
	if strings.Contains(strings.Join(tbl.Notes, "\n"), "WARNING") {
		t.Fatal("legacy wall vs wall-clock is the SAME basis and must not warn")
	}
}

// TestLoadSnapshotRoundTrip exercises the load experiment end to end at
// tiny duration and round-trips its snapshot through disk and compare.
func TestLoadSnapshotRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("load runs real HTTP scenarios; not short")
	}
	cfg := tinyConfig()
	report, tables, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || len(report.Results) != 7 {
		t.Fatalf("unexpected shape: %d tables, %d results", len(tables), len(report.Results))
	}
	var shed, traced, bare *LoadEntry
	for i := range report.Results {
		switch report.Results[i].Scenario {
		case "tight-shed":
			shed = &report.Results[i]
		case "overlap-traced":
			traced = &report.Results[i]
		case "overlap-notrace":
			bare = &report.Results[i]
		}
	}
	if shed == nil || shed.Shed == 0 || shed.ShedRate <= 0 {
		t.Fatalf("tight-shed scenario did not shed: %+v", shed)
	}
	if traced == nil || bare == nil {
		t.Fatal("missing the overlap tracing A/B pair")
	}
	if note := traceOverheadNote(report.Results); note == "" {
		t.Fatal("no tracing-overhead note produced")
	}
	for _, e := range report.Results {
		if e.OK == 0 || e.P50Ms <= 0 || e.P999Ms < e.P99Ms || e.P99Ms < e.P50Ms {
			t.Fatalf("implausible entry: %+v", e)
		}
	}
	path := filepath.Join(t.TempDir(), "load.json")
	if err := WriteLoad(path, report); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLoad(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != LoadSchema || len(back.Results) != len(report.Results) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	cmp := CompareLoad(back, report)
	if len(cmp.Rows) != len(report.Results) {
		t.Fatalf("compare table has %d rows, want %d", len(cmp.Rows), len(report.Results))
	}
	if _, err := ReadLoad(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("reading a missing snapshot should error")
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "with,comma"}, {"22", `with"quote`}},
		Notes:  []string{"note"},
	}
	s := tbl.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "# note") {
		t.Errorf("String output wrong:\n%s", s)
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, `"with,comma"`) {
		t.Errorf("CSV did not quote comma cell:\n%s", csv)
	}
	if !strings.Contains(csv, `"with""quote"`) {
		t.Errorf("CSV did not escape quote cell:\n%s", csv)
	}
}
