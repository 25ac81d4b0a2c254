package bitstream_test

import (
	"os"
	"testing"

	"fpgaflow/internal/bitstream"
	"fpgaflow/internal/core"
)

// BenchmarkBitstreamCodec is DAGGER's per-compile work on rand128's routed
// design (8x8 paper platform, W=16): Generate the configuration, Encode
// it, decode it back on the routed graph and Extract the configured
// netlist, as the flow's bits/* checks and Verify do.
func BenchmarkBitstreamCodec(b *testing.B) {
	src, err := os.ReadFile("../../examples/netlists/rand128.blif")
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.RunBLIF(string(src), core.Options{Seed: 1, SkipVerify: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs, err := bitstream.Generate(res.Packing, res.Problem, res.Placed, res.Routed)
		if err != nil {
			b.Fatal(err)
		}
		data, err := bitstream.Encode(bs)
		if err != nil {
			b.Fatal(err)
		}
		dec, err := bitstream.DecodeOn(data, res.Routed.Graph)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bitstream.Extract(dec); err != nil {
			b.Fatal(err)
		}
	}
}
