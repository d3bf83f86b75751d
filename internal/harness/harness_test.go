package harness

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ciphermatch/internal/perfmodel"
)

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"fig10", "fig11", "fig12", "fig2", "fig3", "fig7", "fig8", "fig9", "overhead", "table1", "table2", "table3"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
	}
	if _, ok := ByID("fig7"); !ok {
		t.Fatal("ByID failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID returned a ghost")
	}
}

func TestExperimentsRunAndRender(t *testing.T) {
	m := perfmodel.NewPaperModel()
	for _, e := range All() {
		if testing.Short() && e.ID == "fig2" {
			continue // fig2 measures the functional matchers (~seconds)
		}
		tbl, err := e.Run(m)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: empty table", e.ID)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Headers) {
				t.Fatalf("%s: row width %d != headers %d", e.ID, len(row), len(tbl.Headers))
			}
		}
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatalf("%s render: %v", e.ID, err)
		}
		if !strings.Contains(buf.String(), tbl.Title) {
			t.Fatalf("%s render missing title", e.ID)
		}
		buf.Reset()
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatalf("%s csv: %v", e.ID, err)
		}
	}
}

func TestFig7TableContainsPaperColumn(t *testing.T) {
	m := perfmodel.NewPaperModel()
	tbl, err := mustRun(t, m, "fig7")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(tbl.Rows, func(row []string) bool { return row[0] == "16" && row[3] == "20.7x" }) {
		t.Fatal("fig7 table must carry the paper's 20.7x anchor for comparison")
	}
	// The 16-shift-semantics column must reproduce the paper's increasing
	// trend with query size.
	var first, last float64
	fmt.Sscanf(tbl.Rows[0][2], "%f", &first)
	fmt.Sscanf(tbl.Rows[len(tbl.Rows)-1][2], "%f", &last)
	if last <= first {
		t.Fatalf("16-shift semantics speedup must grow with query size: %.1f -> %.1f", first, last)
	}
}

func mustRun(t *testing.T, m *perfmodel.Model, id string) (*Table, error) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	return e.Run(m)
}
