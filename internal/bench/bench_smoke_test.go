package bench

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table4", "table5",
		"fig8a", "fig8b", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"fig20", "fig21", "fig22", "fig23",
		"abl-rename", "abl-cache", "abl-conntrack", "abl-qos",
		"abl-virtio-batch", "abl-nic-cache", "abl-mtu", "abl-transport",
		"abl-ctrl-faults", "abl-trace-overhead", "abl-chaos",
		"abl-ctrl-crash", "abl-rule-scale", "abl-setup-rate",
		"abl-migrate", "abl-ctrl-scale",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i].ID <= all[i-1].ID {
			t.Fatalf("All() not sorted by ID: %q after %q", all[i].ID, all[i-1].ID)
		}
	}
}

// TestCheapExperimentsProduceTables runs the fast experiments end to end
// and sanity-checks their structure. (The expensive ones run under
// `go test -bench`; see the root bench_test.go.)
func TestCheapExperimentsProduceTables(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table4", "fig8b", "fig15", "fig16", "fig18", "abl-virtio-batch", "abl-conntrack", "abl-trace-overhead"} {
		e, _ := Lookup(id)
		tbl := e.Run()
		if tbl.ID != id {
			t.Errorf("%s: table id %q", id, tbl.ID)
		}
		if len(tbl.Columns) < 2 || len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table (%d cols, %d rows)", id, len(tbl.Columns), len(tbl.Rows))
		}
		for ri, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Errorf("%s row %d: %d cells for %d columns", id, ri, len(row), len(tbl.Columns))
			}
		}
		var sb strings.Builder
		tbl.Render(&sb)
		out := sb.String()
		if !strings.Contains(out, tbl.Title) {
			t.Errorf("%s: render missing title", id)
		}
		for _, col := range tbl.Columns {
			if !strings.Contains(out, col) {
				t.Errorf("%s: render missing column %q", id, col)
			}
		}
	}
}

// TestTable1HeadlineSlowdowns pins the paper's flagship Table 1 numbers.
func TestTable1HeadlineSlowdowns(t *testing.T) {
	e, _ := Lookup("table1")
	tbl := e.Run()
	var postSendRow, pollRow []string
	for _, row := range tbl.Rows {
		if strings.Contains(row[1], "post_send") {
			postSendRow = row
		}
		if strings.Contains(row[1], "poll_cq") {
			pollRow = row
		}
	}
	if postSendRow == nil || pollRow == nil {
		t.Fatal("table 1 rows missing")
	}
	if postSendRow[4] != "101.0" {
		t.Errorf("post_send slowdown = %s, want 101.0", postSendRow[4])
	}
	if pollRow[4] != "667.7" {
		t.Errorf("poll_cq slowdown = %s, want 667.7", pollRow[4])
	}
}

// TestFig18MatchesPaperExactly pins the calibrated reset costs.
func TestFig18MatchesPaperExactly(t *testing.T) {
	e, _ := Lookup("fig18")
	tbl := e.Run()
	want := map[string]string{
		"w/o traffic (VF)":      "518.00",
		"w/ heavy traffic (VF)": "838.00",
		"w/o traffic (PF)":      "253.00",
	}
	for _, row := range tbl.Rows {
		if w, ok := want[row[0]]; ok && row[3] != w {
			t.Errorf("%s total = %s, want %s", row[0], row[3], w)
		}
	}
}

func TestTableAddRowStringification(t *testing.T) {
	tbl := &Table{ID: "x", Columns: []string{"a", "b", "c"}}
	tbl.AddRow("s", 3.14159, 42)
	if tbl.Rows[0][0] != "s" || tbl.Rows[0][1] != "3.14" || tbl.Rows[0][2] != "42" {
		t.Fatalf("row = %v", tbl.Rows[0])
	}
	tbl.Note("n=%d", 7)
	if tbl.Notes[0] != "n=7" {
		t.Fatalf("note = %q", tbl.Notes[0])
	}
}

// TestExperimentsAreDeterministic: identical tables on repeated runs —
// the end-to-end guarantee the simulation engine promises.
func TestExperimentsAreDeterministic(t *testing.T) {
	for _, id := range []string{"fig8a", "table4", "fig18", "abl-virtio-batch"} {
		e, _ := Lookup(id)
		a, b := e.Run(), e.Run()
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("%s: row counts differ", id)
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if a.Rows[i][j] != b.Rows[i][j] {
					t.Errorf("%s row %d col %d: %q vs %q", id, i, j, a.Rows[i][j], b.Rows[i][j])
				}
			}
		}
	}
}
