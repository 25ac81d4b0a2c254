package sim

import (
	"os"
	"testing"

	"fpgaflow/internal/logic"
	"fpgaflow/internal/netlist"
	"fpgaflow/internal/techmap"
)

// mappedRand128 returns the rand128 example and its 4-LUT mapping, made
// as the flow makes it: Optimize, Decompose, FlowMap.
func mappedRand128(b *testing.B) (src, mapped *netlist.Netlist) {
	b.Helper()
	text, err := os.ReadFile("../../examples/netlists/rand128.blif")
	if err != nil {
		b.Fatal(err)
	}
	src, err = netlist.ParseBLIF(string(text))
	if err != nil {
		b.Fatal(err)
	}
	nl := src.Clone()
	if _, err := logic.Optimize(nl); err != nil {
		b.Fatal(err)
	}
	if err := logic.Decompose(nl); err != nil {
		b.Fatal(err)
	}
	res, err := techmap.FlowMap(nl, 4)
	if err != nil {
		b.Fatal(err)
	}
	return src, res.Netlist
}

// activitySink keeps the benchmarked result live.
var activitySink *Activity

// BenchmarkEstimateActivity is PowerModel's activity simulation: 500
// random cycles over rand128's mapped netlist.
func BenchmarkEstimateActivity(b *testing.B) {
	_, mapped := mappedRand128(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		act, err := EstimateActivity(mapped, 500, 0.5, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		activitySink = act
	}
}

// BenchmarkCheckEquivalent is the closing Verify check's shape: rand128
// (16 inputs, over the exhaustive limit of 12) against its mapping on 400
// random vectors.
func BenchmarkCheckEquivalent(b *testing.B) {
	src, mapped := mappedRand128(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CheckEquivalent(src, mapped, 12, 400, 2); err != nil {
			b.Fatal(err)
		}
	}
}
