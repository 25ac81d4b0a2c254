package experiments

import (
	"io"
	"strings"
	"testing"

	"fpgaflow/internal/circuit"
	"fpgaflow/internal/circuits"
	"fpgaflow/internal/obs"
)

func TestTable1Report(t *testing.T) {
	var sb strings.Builder
	rows, err := Table1(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	out := sb.String()
	for _, cell := range []string{"Chung 1", "Chung 2", "Llopis 1", "Llopis 2", "Strollo"} {
		if !strings.Contains(out, cell) {
			t.Errorf("report missing %s", cell)
		}
	}
	if !strings.Contains(out, "lowest energy: Llopis 1") {
		t.Errorf("paper conclusion missing:\n%s", out)
	}
	if !strings.Contains(out, "lowest EDP: Chung 2") {
		t.Errorf("paper conclusion missing:\n%s", out)
	}
}

func TestTable2Report(t *testing.T) {
	var sb strings.Builder
	rows, err := Table2(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatal("want 3 rows")
	}
	// Idle saving must be large and negative in the rendered delta.
	if !strings.Contains(sb.String(), "-") {
		t.Error("no negative delta rendered")
	}
}

func TestTable3Report(t *testing.T) {
	var sb strings.Builder
	rows, err := Table3(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatal("want 3 conditions")
	}
	if !strings.Contains(sb.String(), "pays off") {
		t.Error("break-even line missing")
	}
}

func TestFigures(t *testing.T) {
	for name, fn := range map[string]func(io.Writer) map[int][]circuit.SizingPoint{
		"fig8": Fig8, "fig9": Fig9, "fig10": Fig10,
	} {
		var sb strings.Builder
		data := fn(&sb)
		if len(data) != 4 {
			t.Errorf("%s: %d wire lengths", name, len(data))
		}
		if !strings.Contains(sb.String(), "optimum") {
			t.Errorf("%s: no optimum reported", name)
		}
	}
}

func TestTriStateReport(t *testing.T) {
	var sb strings.Builder
	pts := TriState(&sb)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	if !strings.Contains(sb.String(), "pass transistor") {
		t.Error("selection conclusion missing")
	}
}

// fastSuite keeps exploration tests quick.
func fastSuite() []circuits.Benchmark {
	return []circuits.Benchmark{
		circuits.RippleAdder(4),
		circuits.Counter(4),
		circuits.ParityTree(8),
	}
}

func TestExploreClusterInputs(t *testing.T) {
	var sb strings.Builder
	pts, err := ExploreClusterInputs(&sb, fastSuite())
	if err != nil {
		t.Fatal(err)
	}
	// Utilization must be non-decreasing in I and high at I=12.
	var at12, at4 float64
	for _, p := range pts {
		if p.I == 12 {
			at12 = p.Utilization
		}
		if p.I == 4 {
			at4 = p.Utilization
		}
	}
	if at12 < at4 {
		t.Errorf("utilization at I=12 (%.2f) below I=4 (%.2f)", at12, at4)
	}
	if at12 < 0.5 {
		t.Errorf("utilization at the paper's I too low: %.2f", at12)
	}
}

func TestExploreLUTSize(t *testing.T) {
	if testing.Short() {
		t.Skip("flow sweep")
	}
	var sb strings.Builder
	tr := obs.New("explore")
	pts, err := ExploreLUTSize(&sb, fastSuite(), 1, tr)
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if len(pts) != 6 {
		t.Fatalf("%d points", len(pts))
	}
	// The concurrent flows' metrics fold into the caller's trace; their
	// span trees stay with their own runs.
	if n := tr.Counter("flow.stages").Value(); n <= 0 {
		t.Errorf("flow.stages = %d on the sweep's trace, want > 0", n)
	}
	if spans := tr.Spans(); len(spans) != 0 {
		t.Errorf("sweep trace holds %d spans of concurrent runs, want none", len(spans))
	}
	best := argminPower(pts)
	if best < 3 || best > 5 {
		t.Errorf("optimal K=%d outside [3,5] (paper: 4)\n%s", best, sb.String())
	}
	byK := map[int]SweepPoint{}
	for _, p := range pts {
		byK[p.Param] = p
	}
	if byK[4].PowerMW >= byK[7].PowerMW {
		t.Errorf("K=4 (%.3f mW) not better than K=7 (%.3f mW)", byK[4].PowerMW, byK[7].PowerMW)
	}
}

func TestExploreClusterSize(t *testing.T) {
	if testing.Short() {
		t.Skip("flow sweep")
	}
	var sb strings.Builder
	pts, err := ExploreClusterSize(&sb, fastSuite(), 1, nil)
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	best := argminPower(pts)
	if best < 3 || best > 8 {
		t.Errorf("optimal N=%d outside [3,8] (paper: 5)\n%s", best, sb.String())
	}
}

func TestFullFlowTable(t *testing.T) {
	if testing.Short() {
		t.Skip("flow sweep")
	}
	var sb strings.Builder
	rows, err := FullFlow(&sb, fastSuite(), 1, true, nil)
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	for _, r := range rows {
		if !r.Verified {
			t.Errorf("%s: not verified", r.Metrics.Name)
		}
		if r.Metrics.LUTs == 0 || r.Metrics.PowerTotalMW <= 0 {
			t.Errorf("%s: incomplete metrics %+v", r.Metrics.Name, r.Metrics)
		}
	}
}

func TestExploreSegmentLength(t *testing.T) {
	if testing.Short() {
		t.Skip("flow sweep")
	}
	var sb strings.Builder
	rows, err := ExploreSegmentLength(&sb, fastSuite(), 1, nil)
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.MinW <= 0 || r.CriticalNS <= 0 || r.PowerMW <= 0 {
			t.Errorf("L=%d incomplete: %+v", r.SegmentLength, r)
		}
	}
}

func TestUtilizationSuiteReaches90Percent(t *testing.T) {
	if testing.Short() {
		t.Skip("large circuits")
	}
	var sb strings.Builder
	pts, err := ExploreClusterInputs(&sb, UtilizationSuite())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.I == 12 && p.Utilization < 0.85 {
			t.Errorf("utilization at I=12 on large circuits: %.1f%%\n%s", 100*p.Utilization, sb.String())
		}
	}
}

func TestPaperVsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("flow sweep")
	}
	var sb strings.Builder
	rows, err := PaperVsBaseline(&sb, fastSuite(), 1, nil)
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	// Sequential designs must show a clock-power advantage; overall power
	// must not be worse.
	totP, totB := 0.0, 0.0
	for _, r := range rows {
		totP += r.PaperMW
		totB += r.BaseMW
	}
	if totP >= totB {
		t.Errorf("paper platform not cheaper: %.4f vs %.4f mW\n%s", totP, totB, sb.String())
	}
	for _, r := range rows {
		if r.Name == "count4" && r.ClockPaper >= r.ClockBase {
			t.Errorf("counter clock power not reduced: %.4f vs %.4f", r.ClockPaper, r.ClockBase)
		}
	}
}
