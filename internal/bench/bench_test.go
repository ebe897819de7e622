package bench

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.N != 4 {
		t.Errorf("summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("std %v", s.Std)
	}
	if e := Summarize(nil); e.N != 0 || e.Min != 0 || e.Max != 0 {
		t.Errorf("empty summary %+v", e)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Name: "test", Header: []string{"a", "bee"}}
	tab.AddRow("1", "2")
	tab.AddRow("longer", "x")
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== test ==") || !strings.Contains(out, "longer") {
		t.Errorf("render missing content:\n%s", out)
	}
	var csv bytes.Buffer
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := csv.String(); !strings.HasPrefix(got, "a,bee\n1,2\n") {
		t.Errorf("csv:\n%s", got)
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := &Table{Header: []string{"x"}}
	tab.AddRow(`comma, and "quote"`)
	var csv bytes.Buffer
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), `"comma, and ""quote"""`) {
		t.Errorf("csv escaping wrong: %s", csv.String())
	}
}

func TestFmtAndSeconds(t *testing.T) {
	if Fmt(0) != "0" {
		t.Error("Fmt(0)")
	}
	if Fmt(1234567) != "1.235e+06" {
		t.Errorf("Fmt big: %s", Fmt(1234567))
	}
	if Seconds(0.5) != "500.0ms" || Seconds(2) != "2.00s" || Seconds(1e-5) != "10.0µs" {
		t.Errorf("Seconds: %s %s %s", Seconds(0.5), Seconds(2), Seconds(1e-5))
	}
}

// tinyRunner builds a fast config for smoke tests of the figure runners.
func tinyRunner() *Runner {
	return NewRunner(Config{
		Scale:     0.001, // 6k-atom BTV stand-in, 510-atom CMV
		SuiteSize: 4,
		MaxAtoms:  1500,
		Runs:      4,
	})
}

func TestStaticTables(t *testing.T) {
	r := tinyRunner()
	env := r.TableEnv()
	if len(env.Rows) < 5 {
		t.Errorf("env table rows: %d", len(env.Rows))
	}
	pkgs := r.TablePackages()
	if len(pkgs.Rows) != 9 {
		t.Errorf("packages table rows: %d, want 9 (Table II)", len(pkgs.Rows))
	}
}

func TestSuiteCachingAndFilter(t *testing.T) {
	r := tinyRunner()
	s1 := r.Suite()
	s2 := r.Suite()
	if len(s1) == 0 {
		t.Fatal("empty suite")
	}
	if &s1[0] != &s2[0] {
		t.Error("suite not cached")
	}
	for _, it := range s1 {
		if it.Entry.Atoms > 1500 {
			t.Errorf("MaxAtoms filter failed: %d", it.Entry.Atoms)
		}
		if it.NaiveEnergy >= 0 {
			t.Errorf("naive energy %v", it.NaiveEnergy)
		}
	}
}

func TestFig5And6Smoke(t *testing.T) {
	r := tinyRunner()
	f5 := r.Fig5Scalability()
	if len(f5.Rows) != len(fig56Cores) {
		t.Errorf("fig5 rows: %d", len(f5.Rows))
	}
	f6 := r.Fig6MinMax()
	if len(f6.Rows) != len(fig56Cores) {
		t.Errorf("fig6 rows: %d", len(f6.Rows))
	}
}

func TestFig7Through10Smoke(t *testing.T) {
	r := tinyRunner()
	n := len(r.Suite())
	if got := r.Fig7Engines(); len(got.Rows) != n {
		t.Errorf("fig7 rows: %d", len(got.Rows))
	}
	a, b := r.Fig8Baselines()
	if len(a.Rows) != n || len(b.Rows) != n {
		t.Errorf("fig8 rows: %d/%d", len(a.Rows), len(b.Rows))
	}
	if got := r.Fig9Energy(); len(got.Rows) != n {
		t.Errorf("fig9 rows: %d", len(got.Rows))
	}
	if got := r.Fig10Epsilon(); len(got.Rows) != 9 {
		t.Errorf("fig10 rows: %d", len(got.Rows))
	}
}

func TestFig11Smoke(t *testing.T) {
	r := tinyRunner()
	tab := r.Fig11CMV()
	if len(tab.Rows) != 4 {
		t.Errorf("fig11 rows: %d", len(tab.Rows))
	}
}

func TestAblationsSmoke(t *testing.T) {
	r := tinyRunner()
	for name, tab := range map[string]*Table{
		"workdiv":  r.AblationWorkDivision(),
		"nblist":   r.AblationOctreeVsNblist(),
		"binning":  r.AblationEnergyBinning(),
		"stealing": r.AblationStealing(),
		"balance":  r.AblationStaticBalance(),
		"distdata": r.AblationDataDistribution(),
		"crit":     r.AblationCriterion(),
	} {
		if len(tab.Rows) == 0 {
			t.Errorf("ablation %s: empty table", name)
		}
	}
}

func TestWriteCSVFile(t *testing.T) {
	dir := t.TempDir()
	tab := &Table{Name: "Figure X: odd/name (test)", Header: []string{"a"}}
	tab.AddRow("1")
	path, err := tab.WriteCSVFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "a\n1\n") {
		t.Errorf("csv content: %q", data)
	}
	if strings.ContainsAny(filepath.Base(path), "/: ()") {
		t.Errorf("unsanitized filename: %s", path)
	}
}
